package redundancy_test

// The resilience acceptance test: a seeded chaos campaign of error
// bursts, hangs, and overload driven against SequentialAlternatives and
// ParallelSelection with the full policy stack attached. It checks the
// end-to-end claims: no wedged goroutines survive the campaign, the
// breaker opens on the Bohrbug variant within its threshold, shed
// requests fail fast, the degradation ladder serves the last-good value,
// and every policy action is visible in the observation snapshot and the
// campaign report.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
)

// chaosTestCampaign is the acceptance schedule: warmup, error burst,
// hangs, overload against the bulkhead, and a correlated burst that
// defeats every variant at once.
func chaosTestCampaign(seed uint64) *redundancy.ChaosCampaign {
	return &redundancy.ChaosCampaign{
		Name:    "acceptance",
		Seed:    seed,
		MaxHang: redundancy.ChaosDuration(500 * time.Millisecond),
		Phases: []redundancy.ChaosPhase{
			{Name: "warmup", Requests: 50},
			{Name: "error-burst", Requests: 100, ErrorBurst: 0.7},
			{Name: "hangs", Requests: 40, Hangs: 0.5},
			{Name: "overload", Requests: 150, Concurrency: 32,
				LatencySpike: 1, SpikeDelay: redundancy.ChaosDuration(2 * time.Millisecond)},
			{Name: "correlated", Requests: 60, ErrorBurst: 1, Correlated: true},
		},
	}
}

// chaosVariants builds one Bohrbug variant (fails every request) and two
// healthy alternates, all wrapped with the campaign's disturbances.
func chaosVariants(camp *redundancy.ChaosCampaign) []redundancy.Variant[int, int] {
	bohr := redundancy.NewVariant("bohr", func(_ context.Context, _ int) (int, error) {
		return 0, errors.New("bohrbug: deterministic failure")
	})
	alt1 := redundancy.NewVariant("alt-1", func(_ context.Context, x int) (int, error) {
		return x, nil
	})
	alt2 := redundancy.NewVariant("alt-2", func(_ context.Context, x int) (int, error) {
		return x, nil
	})
	return redundancy.ChaosVariants(camp, []redundancy.Variant[int, int]{bohr, alt1, alt2})
}

// policyStack is one executor's full resilience wiring for the test.
type policyStack struct {
	collector *redundancy.Collector
	breakers  *redundancy.Breakers
	bulkhead  *redundancy.Bulkhead
	ladder    *redundancy.FallbackLadder[int, int]
	opts      []redundancy.PatternOption
}

func newPolicyStack(seed uint64) *policyStack {
	s := &policyStack{
		collector: redundancy.NewCollector(),
		breakers: redundancy.NewBreakers(redundancy.BreakerConfig{
			ConsecutiveFailures: 5,
			OpenFor:             time.Hour, // no reprobe inside the run
		}),
		bulkhead: redundancy.NewBulkhead(redundancy.BulkheadConfig{
			MaxConcurrent: 4,
			MaxWaiting:    4,
		}),
		ladder: redundancy.NewFallbackLadder[int, int]().CacheLastGood(),
	}
	s.opts = []redundancy.PatternOption{
		redundancy.WithObserver(s.collector),
		redundancy.WithBreaker(s.breakers),
		redundancy.WithRetryPolicy(redundancy.RetryPolicy{
			BaseBackoff: 50 * time.Microsecond,
			MaxBackoff:  500 * time.Microsecond,
			Jitter:      0.5,
			Seed:        seed,
			Budget:      redundancy.NewRetryBudget(100, 1),
		}),
		redundancy.WithBulkhead(s.bulkhead),
		redundancy.WithDeadline(250*time.Millisecond, 10*time.Millisecond),
		redundancy.WithFallback(s.ladder),
	}
	return s
}

// verifyChaosRun checks the acceptance claims shared by both executors.
func verifyChaosRun(t *testing.T, s *policyStack, rep *redundancy.CampaignReport, camp *redundancy.ChaosCampaign, executor string) {
	t.Helper()

	// Outcome conservation: every offered request is accounted for.
	totals := rep.Totals()
	if got := totals.Succeeded + totals.Shed + totals.BreakerFast + totals.Degraded + totals.Failed; got != camp.Total() {
		t.Errorf("tally conservation: %d classified, %d offered", got, camp.Total())
	}

	// The breaker opened on the Bohrbug variant within its threshold and
	// stayed open (OpenFor exceeds the run).
	if got := s.breakers.State("bohr"); got != redundancy.BreakerOpen {
		t.Errorf("bohr breaker state = %v, want open", got)
	}
	if s.breakers.Opens() == 0 {
		t.Error("no breaker ever opened during the campaign")
	}

	// The ladder served the last-good value: the correlated phase fails
	// every variant of every request, so each of its requests was served
	// from the cache.
	var correlated redundancy.PhaseReport
	for _, p := range rep.Phases {
		if p.Name == "correlated" {
			correlated = p
		}
	}
	if correlated.Succeeded != correlated.Requests {
		t.Errorf("correlated phase: %d/%d served; every request should ride the last-good cache",
			correlated.Succeeded, correlated.Requests)
	}
	if s.ladder.CacheServes() < int64(correlated.Requests) {
		t.Errorf("ladder cache serves = %d, want >= %d", s.ladder.CacheServes(), correlated.Requests)
	}
	if last, ok := s.ladder.LastGood(); !ok {
		t.Error("ladder holds no last-good value after the campaign")
	} else if last < 0 || last >= camp.Total() {
		t.Errorf("last-good value %d outside the request range", last)
	}

	// Every policy action is visible in the observation snapshot carried
	// by the report.
	if len(rep.Observed) == 0 {
		t.Fatal("campaign report carries no observation snapshot")
	}
	snap := rep.Observed[0]
	if snap.Executor != executor {
		t.Errorf("snapshot executor = %q, want %q", snap.Executor, executor)
	}
	if snap.Requests == 0 || snap.BreakerOpens == 0 || snap.DegradedServes == 0 {
		t.Errorf("snapshot requests=%d breaker_opens=%d degraded_serves=%d; all must be nonzero",
			snap.Requests, snap.BreakerOpens, snap.DegradedServes)
	}
	if int64(snap.Shed) != s.bulkhead.Sheds() {
		t.Errorf("snapshot shed=%d, bulkhead counted %d", snap.Shed, s.bulkhead.Sheds())
	}
}

// runChaosAcceptance runs the campaign with a goroutine-leak check
// around it.
func runChaosAcceptance(t *testing.T, build func(s *policyStack, camp *redundancy.ChaosCampaign) redundancy.Executor[int, int], executor string) {
	t.Helper()
	// Zero wedged goroutines: hangs are bounded by the variant deadline
	// or the MaxHang guard, so the count settles back to the baseline.
	defer checkNoGoroutineLeak(t)()

	camp := chaosTestCampaign(42)
	s := newPolicyStack(42)
	exec := build(s, camp)
	rep, err := redundancy.RunChaosCampaign(context.Background(), camp, exec,
		func(req uint64) int { return int(req) }, s.collector)
	if err != nil {
		t.Fatal(err)
	}
	verifyChaosRun(t, s, rep, camp, executor)
}

func TestChaosCampaignSequentialAlternatives(t *testing.T) {
	runChaosAcceptance(t, func(s *policyStack, camp *redundancy.ChaosCampaign) redundancy.Executor[int, int] {
		sa, err := redundancy.NewSequentialAlternatives(
			chaosVariants(camp),
			func(_, _ int) error { return nil },
			nil,
			s.opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sa
	}, "sequential-alternatives")
}

func TestChaosCampaignParallelSelection(t *testing.T) {
	runChaosAcceptance(t, func(s *policyStack, camp *redundancy.ChaosCampaign) redundancy.Executor[int, int] {
		accept := func(_, _ int) error { return nil }
		ps, err := redundancy.NewParallelSelection(
			chaosVariants(camp),
			[]redundancy.AcceptanceTest[int, int]{accept, accept, accept},
			s.opts...)
		if err != nil {
			t.Fatal(err)
		}
		// Re-enable disabled variants between requests so the breaker —
		// not permanent disablement — is the mechanism that stops the
		// executor from hammering the Bohrbug variant.
		return redundancy.ExecutorFunc[int, int](func(ctx context.Context, x int) (int, error) {
			ps.Reset()
			return ps.Execute(ctx, x)
		})
	}, "parallel-selection")
}

// TestShedRequestsFailFast pins the load-shedding latency claim in
// isolation: with the bulkhead full, an overload request is rejected in
// far less than a tenth of the request deadline.
func TestShedRequestsFailFast(t *testing.T) {
	const requestDeadline = 500 * time.Millisecond
	release := make(chan struct{})
	slow := redundancy.NewVariant("slow", func(ctx context.Context, x int) (int, error) {
		select {
		case <-release:
			return x, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})
	bulkhead := redundancy.NewBulkhead(redundancy.BulkheadConfig{MaxConcurrent: 1, MaxWaiting: 0})
	s, err := redundancy.NewSingle(slow,
		redundancy.WithBulkhead(bulkhead),
		redundancy.WithDeadline(requestDeadline, 0))
	if err != nil {
		t.Fatal(err)
	}
	occupied := make(chan error, 1)
	go func() {
		_, err := s.Execute(context.Background(), 1)
		occupied <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for bulkhead.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never occupied the bulkhead")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	_, shedErr := s.Execute(context.Background(), 2)
	elapsed := time.Since(start)
	close(release)
	if err := <-occupied; err != nil {
		t.Fatalf("occupying request failed: %v", err)
	}
	if !errors.Is(shedErr, redundancy.ErrShedded) {
		t.Fatalf("overload Execute = %v, want ErrShedded", shedErr)
	}
	if elapsed >= requestDeadline/10 {
		t.Errorf("shed took %v, want < deadline/10 (%v)", elapsed, requestDeadline/10)
	}
}

// TestChaosCampaignDeterministicSchedule replays one campaign twice and
// checks the deterministic phases tally identically — the chaos
// schedule is a pure function of the seed, not of scheduling.
func TestChaosCampaignDeterministicSchedule(t *testing.T) {
	run := func() string {
		camp := chaosTestCampaign(7)
		s := newPolicyStack(7)
		sa, err := redundancy.NewSequentialAlternatives(
			chaosVariants(camp), func(_, _ int) error { return nil }, nil, s.opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := redundancy.RunChaosCampaign(context.Background(), camp, sa,
			func(req uint64) int { return int(req) }, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Overload outcomes depend on real scheduling; the sequential
		// phases must replay exactly.
		out := ""
		for _, p := range rep.Phases {
			if p.Name == "overload" || p.Name == "hangs" {
				continue
			}
			out += fmt.Sprintf("%s:%d/%d/%d/%d/%d;", p.Name,
				p.Succeeded, p.Shed, p.BreakerFast, p.Degraded, p.Failed)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("deterministic phases diverged between runs:\n%s\n%s", a, b)
	}
}
