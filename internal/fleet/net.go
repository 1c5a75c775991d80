package fleet

// E24 and E25: three replicas behind the framed RPC transport, served to
// a parallel-selection executor over three hedging RemoteVariants, each
// preferring a different primary. A clean run sends a fixed number of
// requests; a chaos run wraps every dial path in a NetworkCampaign and
// drives the workload for the campaign's whole wall-clock schedule.

import (
	"context"
	"fmt"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
)

// NetVictim is the replica the builtin network campaign partitions.
const NetVictim = "r2"

// NetConfig selects one network-fleet run.
type NetConfig struct {
	// Requests is the clean run's length; a campaign run ignores it.
	Requests int
	// Campaign injects network faults; nil runs a clean network.
	Campaign *redundancy.NetworkCampaign
	// Observer additionally watches the client and the fleet.
	Observer redundancy.Observer
	// ReplicaTraces gives every replica server its own trace recorder,
	// as a separate process would have.
	ReplicaTraces bool
}

// NetResult is what one network-fleet run measured.
type NetResult struct {
	Workload
	Names    []string
	Observed []redundancy.ExecutorObservation
	// SLO is the client-path tracker, still readable after the run.
	SLO *redundancy.SLOTracker
	// PeakBurn is the highest fast burn any client executor showed over
	// the run; PartitionPeakBurn the highest while a partition held.
	PeakBurn, PartitionPeakBurn float64
	PeakOn, PartitionPeakOn     string
	// PartitionSeen reports that the workload ran into a partition
	// phase; SuspectAfter is how long after its first request the
	// detector was first seen doubting the partitioned replica (0:
	// never).
	PartitionSeen bool
	SuspectAfter  time.Duration
	// FinalBurn is the fast burn on the victim's preferred path at exit.
	FinalBurn float64
	Replicas  []Replica
	// ReplicaTraces holds each server's own recording (ReplicaTraces).
	ReplicaTraces map[string]*redundancy.TraceRecorder
}

// RunNet stands up the E24/E25 fleet and drives its workload.
func RunNet(cfg NetConfig) (*NetResult, error) {
	collector := redundancy.NewCollector()
	// Windows scaled to the campaign's sub-second phases, so the fast
	// window burns during a partition and recovers after it. The latency
	// objective sits below the hedge delay on purpose: selection masks a
	// partition completely, so the burn shows on the per-path executors,
	// whose hedged rescues cost at least HedgeAfter.
	slo := redundancy.NewSLOTracker(redundancy.SLOConfig{
		Default:    redundancy.SLObjective{Target: 0.999, Latency: 20 * time.Millisecond},
		FastWindow: 500 * time.Millisecond,
		SlowWindow: 3 * time.Second,
	})
	observer := redundancy.CombineObservers(collector, cfg.Observer, slo)
	res := &NetResult{
		Names:         replicaNames(3),
		SLO:           slo,
		ReplicaTraces: map[string]*redundancy.TraceRecorder{},
	}
	spec := Spec{
		Names:    res.Names,
		Variant:  func(string) redundancy.Variant[int, int] { return double("double") },
		Observer: observer,
		Detector: redundancy.FailureDetectorConfig{
			Interval:     100 * time.Millisecond,
			Timeout:      80 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    6,
		},
	}
	if cfg.ReplicaTraces {
		// Only the wire-propagated trace context links these files to
		// the client's.
		spec.ServerObserver = func(name string) redundancy.Observer {
			rec := redundancy.NewTraceRecorder(1 << 16)
			res.ReplicaTraces[name] = rec
			return redundancy.CombineObservers(collector, rec)
		}
	}
	if camp := cfg.Campaign; camp != nil {
		spec.Wrap = func(name string, dial redundancy.DialFunc) redundancy.DialFunc {
			return camp.Wrap(name, dial)
		}
	}
	f, err := New(spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	breakers := redundancy.NewBreakers(redundancy.BreakerConfig{
		ConsecutiveFailures: 8,
		OpenFor:             250 * time.Millisecond,
	})
	var variants []redundancy.Variant[int, int]
	sloExecs := []string{"parallel-selection"}
	for i := range res.Names {
		order := append(append([]string(nil), res.Names[i:]...), res.Names[:i]...)
		remote, err := redundancy.NewRemoteVariant[int, int]("via-"+res.Names[i], redundancy.RemoteConfig{
			CallTimeout: 150 * time.Millisecond,
			HedgeAfter:  25 * time.Millisecond,
			MaxHedges:   2,
			Breakers:    breakers,
			Detector:    f.Detector,
			Observer:    observer,
		}, f.Endpoints(order...)...)
		if err != nil {
			return nil, err
		}
		defer remote.Close()
		variants = append(variants, remote)
		sloExecs = append(sloExecs, remote.Name())
	}
	accept := func(in, out int) error {
		if out != 2*in {
			return fmt.Errorf("got %d want %d", out, 2*in)
		}
		return nil
	}
	sel, err := redundancy.NewParallelSelection(variants,
		[]redundancy.AcceptanceTest[int, int]{accept, accept, accept},
		redundancy.WithObserver(observer))
	if err != nil {
		return nil, err
	}
	f.Start()

	ctx := context.Background()
	camp := cfg.Campaign
	if camp != nil {
		camp.Start()
	}
	var (
		partitionAt time.Time
		victim      string
	)
	runStart := time.Now()
	for i := 1; ; i++ {
		if camp != nil && camp.Done() || camp == nil && i > cfg.Requests {
			break
		}
		var phase *redundancy.NetworkPhase
		if camp != nil {
			_, phase = camp.PhaseNow()
		}
		inPartition := phase != nil && len(phase.Partition) > 0
		if inPartition && partitionAt.IsZero() {
			partitionAt, victim = time.Now(), phase.Partition[0]
			res.PartitionSeen = true
		}
		if victim != "" && res.SuspectAfter == 0 && f.Detector.State(victim) != redundancy.ReplicaAlive {
			res.SuspectAfter = time.Since(partitionAt)
		}
		start := time.Now()
		got, err := sel.Execute(ctx, i)
		res.Requests = append(res.Requests, check(i, got, err, time.Since(start)))
		for _, e := range sloExecs {
			burn := slo.FastBurn(e)
			if burn > res.PeakBurn {
				res.PeakBurn, res.PeakOn = burn, e
			}
			if inPartition && burn > res.PartitionPeakBurn {
				res.PartitionPeakBurn, res.PartitionPeakOn = burn, e
			}
		}
		sel.Reset() // network faults are transient; re-enable for the next request
	}
	res.Elapsed = time.Since(runStart)
	res.FinalBurn = slo.FastBurn("via-" + NetVictim)

	if err := f.Close(); err != nil {
		return nil, err
	}
	res.Observed = collector.Snapshot()
	res.Replicas = f.Replicas()
	return res, nil
}
