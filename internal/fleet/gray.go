package fleet

// E29: a three-replica fleet whose configured primary turns gray
// mid-run — it heartbeats on time and answers every request correctly,
// but serves Factor times slower. The off arm has no hedging and no
// ejector, so static routing keeps feeding the limper. The on arm
// hedges every slow call, feeds the censored attempt latencies to a
// latency-outlier ejector, routes the persistent slowness evidence to a
// rejuvenation, and reinstates the cured replica. The fault window is
// keyed to the fleet request counter, so both arms inject exactly the
// same fault and their tail amplification compares directly.

import (
	"context"
	"sync/atomic"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/campaign"
)

// GrayLimper is the replica that limps: the configured primary, the
// worst replica to lose to a gray failure because static routing
// concentrates traffic on it.
const GrayLimper = "r1"

// grayMinKeep is the ejector's rotation floor.
const grayMinKeep = 2

// GrayConfig selects one gray-failure run.
type GrayConfig struct {
	Seed     uint64
	Requests int
	// On arms the mitigation stack; off runs the fault unmitigated.
	On bool
	// Profile and Factor shape the limp.
	Profile redundancy.SlowProfile
	Factor  float64
	// BaseLatency is every replica's healthy service time, the unit the
	// limp multiplies; HedgeAfter the mitigated client's hedge delay, a
	// few healthy latencies and far under the limp.
	BaseLatency, HedgeAfter time.Duration
	// Observer additionally watches the client and the fleet.
	Observer redundancy.Observer
}

// GrayResult is what one gray-failure run measured. Requests inside
// the limp window carry the Fault "failslow".
type GrayResult struct {
	Workload
	Names []string
	// LimpFrom and LimpUntil bound the fault window, in requests.
	LimpFrom, LimpUntil int
	// BaselineP99 pools every request outside the window;
	// Amplification is the run p99 over it.
	BaselineP99, RunP99 time.Duration
	Amplification       float64
	// Ejection scores the ejector against the ground truth.
	Ejection *campaign.Ejection
	// TimeToEject runs from the window's start to the limper's first
	// ejection (0: never).
	TimeToEject time.Duration
	// FloorViolations counts routing decisions that left fewer than
	// grayMinKeep endpoints in rotation.
	FloorViolations int
	// LimperEjectedAtEnd reports the limper still out of rotation.
	LimperEjectedAtEnd bool
	Rejuvenations      int
	// Ejector is the ejector's per-endpoint end state (mitigated arm
	// only).
	Ejector  []redundancy.EndpointLatency
	Replicas []Replica
	Observed []redundancy.ExecutorObservation
}

// RunGray stands up the E29 fleet and drives its workload.
func RunGray(cfg GrayConfig) (*GrayResult, error) {
	collector := redundancy.NewCollector()
	observer := redundancy.CombineObservers(collector, cfg.Observer)
	res := &GrayResult{
		Names:     replicaNames(3),
		LimpFrom:  cfg.Requests / 5,
		LimpUntil: cfg.Requests / 2,
	}

	// The gate reads the fleet counter rather than the limper's own call
	// count, so a limper the ejector has starved still recovers on
	// schedule.
	var fleetReq atomic.Int64
	inWindow := func(i int) bool { return i >= res.LimpFrom && i < res.LimpUntil }
	serve := func(name string) redundancy.Variant[int, int] {
		return redundancy.NewVariant(name, func(ctx context.Context, x int) (int, error) {
			timer := time.NewTimer(cfg.BaseLatency)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			return 2 * x, nil
		})
	}
	limper := &redundancy.FailSlowVariant[int, int]{
		Base:        serve(GrayLimper),
		Profile:     cfg.Profile,
		Factor:      cfg.Factor,
		BaseLatency: cfg.BaseLatency,
		Seed:        cfg.Seed,
		Replica:     GrayLimper,
		RampCalls:   cfg.Requests / 10,
		Gate:        func() bool { return inWindow(int(fleetReq.Load())) },
	}
	f, err := New(Spec{
		Names: res.Names,
		Variant: func(name string) redundancy.Variant[int, int] {
			if name == GrayLimper {
				return limper
			}
			return serve(name)
		},
		Observer: observer,
		// The detector sees nothing wrong the whole run — that is the
		// point. It proves the miss track stayed clean and, in the
		// mitigated arm, keeps the slowness evidence the ejector files.
		Detector: redundancy.FailureDetectorConfig{
			Interval:     50 * time.Millisecond,
			Timeout:      80 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    6,
			Seed:         cfg.Seed,
		},
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	remoteCfg := redundancy.RemoteConfig{
		CallTimeout: 150 * time.Millisecond,
		Detector:    f.Detector,
		Observer:    observer,
	}
	var (
		ejector       *redundancy.LatencyEjector
		rejuvenations atomic.Int64
		actionsAt     = func(int64) int { return 0 }
	)
	if cfg.On {
		ejector = redundancy.NewLatencyEjector(redundancy.LatencyEjectorConfig{
			Name:           "fleet-ejector",
			Alpha:          0.5,
			MinSamples:     3,
			MinKeep:        grayMinKeep,
			ProbeEvery:     48,
			ReinstateAfter: 3,
			Seed:           cfg.Seed,
			Detector:       f.Detector,
			Observer:       observer,
		})
		remoteCfg.HedgeAfter = cfg.HedgeAfter
		remoteCfg.MaxHedges = 2
		remoteCfg.Ejector = ejector

		// Persistent slowness evidence earns the limper a rejuvenation,
		// which cures the limp; the ejector's probes then see the
		// recovery and reinstate it.
		actuators := map[string]redundancy.ControlActuator{
			redundancy.ControlActionRejuvenate: func(_ context.Context, a redundancy.ControlAction) (redundancy.ControlAction, error) {
				if a.Target == GrayLimper {
					limper.Rejuvenate()
				}
				rejuvenations.Add(1)
				return a, nil
			},
		}
		actionsAt = countActions(actuators, &fleetReq)
		controller := redundancy.NewController(redundancy.ControllerConfig{
			Name:              "controller",
			Tick:              40 * time.Millisecond,
			MaxActionsPerKind: 4,
			RateWindow:        2 * time.Second,
			Sources: redundancy.ControlSources{
				Detector: f.Detector.States,
				Evidence: f.Detector.Evidence,
			},
			Policies: []redundancy.ControlPolicy{
				redundancy.NewGrayFailurePolicy(redundancy.GrayFailurePolicyConfig{
					SlownessThreshold: 2,
					SettleTicks:       2,
					CooldownTicks:     25,
				}),
			},
			Actuators: actuators,
			Observer:  observer,
		})
		if err := f.Supervise(controller.AsChild()); err != nil {
			return nil, err
		}
	}
	remote, err := redundancy.NewRemoteVariant[int, int]("fleet", remoteCfg, f.Endpoints()...)
	if err != nil {
		return nil, err
	}
	defer remote.Close()
	f.Start()

	ctx := context.Background()
	var limpStart time.Time
	runStart := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		fleetReq.Store(int64(i))
		if i == res.LimpFrom {
			limpStart = time.Now()
		}
		start := time.Now()
		got, err := remote.Execute(ctx, i)
		r := check(i, got, err, time.Since(start))
		if inWindow(i) {
			// Every request in the window ran against a degraded fleet,
			// whether or not it was routed to the limper.
			r.Fault = "failslow"
		}
		res.Requests = append(res.Requests, r)
		if ejector == nil {
			continue
		}
		ejected := 0
		for _, ep := range ejector.Snapshot() {
			if ep.Ejected {
				ejected++
			}
		}
		if len(res.Names)-ejected < grayMinKeep {
			res.FloorViolations++
		}
		if res.TimeToEject == 0 && !limpStart.IsZero() && ejector.Ejected(GrayLimper) {
			res.TimeToEject = time.Since(limpStart)
		}
	}
	res.Elapsed = time.Since(runStart)

	if err := f.Close(); err != nil {
		return nil, err
	}
	for i := range res.Requests {
		res.Requests[i].Actions = actionsAt(int64(i))
	}
	// The baseline pools every gate-closed request, warmup and tail: a
	// p99 over the larger pool is far steadier against isolated
	// scheduler hiccups than one over the warmup alone.
	var healthy []time.Duration
	for i, r := range res.Requests {
		if !inWindow(i) {
			healthy = append(healthy, r.Latency)
		}
	}
	res.BaselineP99 = percentile(healthy, 99)
	res.RunP99 = res.Percentile(99)
	if res.BaselineP99 > 0 {
		res.Amplification = float64(res.RunP99) / float64(res.BaselineP99)
	}

	limpers := map[string]bool{}
	everEjected := map[string]bool{}
	for _, name := range res.Names {
		limpers[name] = name == GrayLimper
	}
	if ejector != nil {
		res.Ejector = ejector.Snapshot()
		for _, ep := range res.Ejector {
			everEjected[ep.Endpoint] = ep.Ejections > 0
			if ep.Endpoint == GrayLimper && ep.Ejected {
				res.LimperEjectedAtEnd = true
			}
		}
	}
	res.Ejection = campaign.NewEjection(limpers, everEjected)
	if ejector != nil {
		res.Ejection.Reinstated = ejector.Reinstatements()
	}
	res.Ejection.TailAmplification = res.Amplification
	res.Rejuvenations = int(rejuvenations.Load())
	res.Replicas = f.Replicas()
	res.Observed = collector.Snapshot()
	return res, nil
}
