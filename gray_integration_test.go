package redundancy_test

// Experiment E29's acceptance test: gray-failure resilience. The
// internal/fleet E29 fleet (the one cmd/faultsim -gray runs) runs twice
// against the same seeded fail-slow fault — the configured primary
// limps 20× through the middle of the run while heartbeating on time
// and answering correctly. Unmitigated, the fleet's p99 inflates by an
// order of magnitude and nothing else in the stack can even see the
// fault (the detector's miss and accusation tracks stay empty). With
// the mitigation stack live — hedged requests, latency-outlier ejection
// with probation, and the gray-failure rejuvenation policy — the limper
// is ejected quickly and precisely (TPR 1, FPR 0), the tail holds near
// baseline, the ejection floor never drops the rotation below two
// endpoints, and the cured limper is reinstated before the run ends.
// Nothing leaks a goroutine.

import (
	"testing"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/fleet"
)

func TestE29GrayFailureResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("the gray-failure arms run for several wall-clock seconds")
	}
	defer checkNoGoroutineLeak(t)()

	unmitigated := runE29Arm(t, false)
	mitigated := runE29Arm(t, true)

	// Both arms stay perfectly available and correct: a gray failure is
	// not an outage, which is exactly why only the latency profile can
	// catch it.
	for arm, r := range map[string]*fleet.GrayResult{"unmitigated": unmitigated, "mitigated": mitigated} {
		if served, wrong := r.Served(), r.WrongAnswers(); served != len(r.Requests) || wrong != 0 {
			t.Errorf("%s arm served %d/%d with %d wrong answers, want all correct", arm, served, len(r.Requests), wrong)
		}
		// Individual heartbeats may blip under scheduler noise, but a
		// limper that acks and answers must never accumulate into an
		// accusation on the liveness track.
		misses, accusations := 0, 0
		for _, rep := range r.Replicas {
			misses += rep.Misses
			accusations += rep.Accusations
		}
		if accusations != 0 {
			t.Errorf("%s arm: detector filed %d accusations (%d misses) against a limper that acks and answers", arm, accusations, misses)
		}
	}

	// The unmitigated arm proves the fault is real and invisible: the
	// tail inflates by an order of magnitude while the detector holds
	// every replica alive.
	if unmitigated.Amplification < 10 {
		t.Errorf("unmitigated tail amplification = %.1f (p99 %v over baseline %v), want >= 10",
			unmitigated.Amplification, unmitigated.RunP99, unmitigated.BaselineP99)
	}
	if unmitigated.Rejuvenations != 0 {
		t.Errorf("unmitigated arm rejuvenated %d times with no controller", unmitigated.Rejuvenations)
	}

	// The mitigated arm contains it: near-baseline tail, exact ejection.
	if mitigated.Amplification > 2 {
		t.Errorf("mitigated tail amplification = %.1f (p99 %v over baseline %v), want <= 2",
			mitigated.Amplification, mitigated.RunP99, mitigated.BaselineP99)
	}
	ejection := mitigated.Ejection
	if ejection.EjectedLimpers == 0 {
		t.Errorf("mitigated arm never ejected the limper (TPR 0, want >= 0.9)")
	}
	if ejection.EjectedHealthy != 0 {
		t.Errorf("mitigated arm ejected %d healthy replicas (FPR %.2f, want <= 0.05)",
			ejection.EjectedHealthy, ejection.FPR)
	}
	if mitigated.FloorViolations != 0 {
		t.Errorf("ejection dropped the rotation below MinKeep on %d routing decisions", mitigated.FloorViolations)
	}
	if mitigated.Rejuvenations < 1 {
		t.Errorf("the gray-failure policy never rejuvenated the limper")
	}
	if ejection.Reinstated < 1 {
		t.Errorf("the cured limper was never reinstated")
	}
	if mitigated.LimperEjectedAtEnd {
		t.Errorf("the limper is still ejected at run end despite recovering")
	}
}

// runE29Arm runs the fleet with the gray-failure mitigation stack
// either live or absent. The 5ms healthy service time keeps scheduler
// and race-detector noise (an additive multi-millisecond p99 tail)
// proportionally small, so the 20× limp clears the 10× amplification
// bar under -race too. The hedge trigger sits well above that healthy
// hiccup tail, so only genuine limping produces hedged-away samples,
// and at three service times, like the CLI's 3ms over 1ms, so those
// samples carry the limper over the ejector's 3× threshold.
func runE29Arm(t *testing.T, grayOn bool) *fleet.GrayResult {
	t.Helper()
	res, err := fleet.RunGray(fleet.GrayConfig{
		Seed:        7,
		Requests:    700,
		On:          grayOn,
		Profile:     redundancy.SlowConstant,
		Factor:      20,
		BaseLatency: 5 * time.Millisecond,
		HedgeAfter:  15 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunGray: %v", err)
	}
	return res
}
