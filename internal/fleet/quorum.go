package fleet

// E27: a 2k+1 quorum fleet under a Byzantine adversary. The first Liars
// replicas wrap the correct service as lying adversaries with the
// chosen strategy: they execute correctly, ack every heartbeat, and
// return a plausible wrong answer. A QuorumVariant fans every request
// to the whole fleet and majority-votes the replies; its
// vote-disagreement accusations feed the failure detector, the only
// track that can convict a liar.

import (
	"context"
	"fmt"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
)

// QuorumCallTimeout is the quorum client's per-replica call timeout.
const QuorumCallTimeout = 150 * time.Millisecond

// QuorumConfig selects one quorum-fleet run.
type QuorumConfig struct {
	Seed     uint64
	Replicas int
	Strategy redundancy.AdversaryStrategy
	Liars    int
	Requests int
	// Observer additionally watches the client and the fleet.
	Observer redundancy.Observer
}

// QuorumResult is what one quorum-fleet run measured. A request the
// adversary attacked carries the Fault "lie:<strategy>"; Detected marks
// an attack the vote outvoted.
type QuorumResult struct {
	Workload
	Names      []string
	Liars      map[string]bool
	Observed   []redundancy.ExecutorObservation
	Replicas   []Replica
	Conviction *campaign.Conviction
}

// Attacked counts requests at least one adversary lied on.
func (r *QuorumResult) Attacked() int {
	n := 0
	for _, q := range r.Requests {
		if q.Fault != "" {
			n++
		}
	}
	return n
}

// RunQuorum stands up the E27 fleet and drives its workload.
func RunQuorum(cfg QuorumConfig) (*QuorumResult, error) {
	if cfg.Liars > cfg.Replicas {
		return nil, fmt.Errorf("adversary count %d exceeds %d replicas", cfg.Liars, cfg.Replicas)
	}
	collector := redundancy.NewCollector()
	observer := redundancy.CombineObservers(collector, cfg.Observer)
	res := &QuorumResult{Names: replicaNames(cfg.Replicas), Liars: map[string]bool{}}
	var adversaries []*redundancy.ByzantineAdversary[int, int]
	for i, name := range res.Names {
		res.Liars[name] = i < cfg.Liars
	}
	f, err := New(Spec{
		Names: res.Names,
		Variant: func(name string) redundancy.Variant[int, int] {
			if !res.Liars[name] {
				return double("double")
			}
			adv := &redundancy.ByzantineAdversary[int, int]{
				Base:     double("double"),
				Strategy: cfg.Strategy,
				Seed:     cfg.Seed,
				Replica:  name,
				// Plausible and deterministic in the input, so colluding
				// replicas agree on the same lie.
				Lie: func(_, correct int) int { return correct + 2 },
				Key: faultmodel.HashInt,
			}
			adversaries = append(adversaries, adv)
			return adv
		},
		Observer: observer,
		Detector: redundancy.FailureDetectorConfig{
			Interval:     50 * time.Millisecond,
			Timeout:      40 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    6,
		},
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	quorum, err := redundancy.NewQuorumVariant[int, int]("quorum", redundancy.QuorumConfig{
		CallTimeout: QuorumCallTimeout,
		Faults:      redundancy.TolerableFaults(cfg.Replicas),
		Detector:    f.Detector,
		Observer:    observer,
	}, redundancy.Majority(redundancy.EqualOf[int]()), redundancy.EqualOf[int](), f.Endpoints()...)
	if err != nil {
		return nil, err
	}
	defer quorum.Close()
	f.Start()

	ctx := context.Background()
	label := "lie:" + string(cfg.Strategy)
	runStart := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		// Ground truth from the adversaries' own determinism, never
		// from the replies.
		attacked := false
		for _, adv := range adversaries {
			attacked = attacked || adv.Lies(i)
		}
		start := time.Now()
		got, err := quorum.Execute(ctx, i)
		r := check(i, got, err, time.Since(start))
		if attacked {
			r.Fault = label
			r.Detected = r.Err == nil // the lie lost the vote
		}
		res.Requests = append(res.Requests, r)
	}
	res.Elapsed = time.Since(runStart)

	if err := f.Close(); err != nil {
		return nil, err
	}
	res.Observed = collector.Snapshot()
	res.Replicas = f.Replicas()
	convicted := map[string]bool{}
	for _, r := range res.Replicas {
		convicted[r.Name] = r.State != redundancy.ReplicaAlive
	}
	res.Conviction = campaign.NewConviction(res.Liars, convicted)
	return res, nil
}
