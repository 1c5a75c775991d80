package redundancy_test

// Experiment E28's acceptance test: the autonomic control plane closes
// the loop from fleet-wide diagnosis to live reconfiguration. The
// internal/fleet E28 fleet (the one cmd/faultsim -control runs) — one
// replica aging toward wear-out, one killed mid-run, one with a
// deterministic bohrbug — runs twice: with the controller frozen by its
// kill switch the fleet collapses below the availability objective;
// with the loop live the controller replaces the dead replica (MTTR
// measured), rejuvenates the aging one, substitutes the buggy one,
// takes a bounded number of actions (no flapping), and holds
// availability at or above 99%. Nothing leaks a goroutine.

import (
	"testing"
	"time"

	"github.com/softwarefaults/redundancy/internal/fleet"
)

func TestE28AutonomicControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("the control-plane arms run for a few wall-clock seconds")
	}
	defer checkNoGoroutineLeak(t)()

	static := runE28Arm(t, false)
	controlled := runE28Arm(t, true)

	// The static arm proves the faults are real: with the controller
	// frozen the accumulated failures push availability far below the
	// objective.
	if availability := static.Availability(); availability >= 0.95 {
		t.Errorf("static arm availability = %.4f, want < 0.95 (the fault schedule should collapse an unmanaged fleet)", availability)
	}
	if len(static.Actions) != 0 {
		t.Errorf("static arm took actions %v despite the kill switch", static.Actions)
	}

	// The controlled arm survives the same schedule.
	if availability := controlled.Availability(); availability < 0.99 {
		t.Errorf("controlled arm availability = %.4f, want >= 0.99", availability)
	}
	if controlled.Actions["replace"] < 1 {
		t.Errorf("controlled arm actions = %v, want at least one replace", controlled.Actions)
	}
	if controlled.Actions["rejuvenate"] < 1 {
		t.Errorf("controlled arm actions = %v, want at least one rejuvenate", controlled.Actions)
	}
	if controlled.Actions["substitute"] != 1 {
		t.Errorf("controlled arm actions = %v, want exactly one substitute (it is terminal)", controlled.Actions)
	}
	if controlled.MTTR <= 0 {
		t.Errorf("controlled arm reported no replacement MTTR")
	} else if controlled.MTTR > 3*time.Second {
		t.Errorf("replacement MTTR = %v, want well under the run length", controlled.MTTR)
	}
	// Bounded intervention: hysteresis and the rate limit keep the loop
	// from flapping — a budget far below one action per tick.
	total := 0
	for _, n := range controlled.Actions {
		total += n
	}
	if total > 12 {
		t.Errorf("controlled arm took %d actions (%v), want a bounded handful", total, controlled.Actions)
	}
}

// e28Timing compresses the time constants of cmd/faultsim -control so
// a 900-request run still sees the detector, breakers, SLO windows and
// controller act.
var e28Timing = fleet.ControlTiming{
	Heartbeat:        40 * time.Millisecond,
	HeartbeatTimeout: 30 * time.Millisecond,
	DeadAfter:        5,
	BreakerOpenFor:   120 * time.Millisecond,
	FastWindow:       300 * time.Millisecond,
	SlowWindow:       2 * time.Second,
	Tick:             50 * time.Millisecond,
	RateWindow:       time.Second,
}

// runE28Arm runs the fleet with the controller either live or frozen.
func runE28Arm(t *testing.T, controlOn bool) *fleet.ControlResult {
	t.Helper()
	res, err := fleet.RunControl(fleet.ControlConfig{
		Seed:     1,
		Requests: 900,
		On:       controlOn,
		Timing:   &e28Timing,
	})
	if err != nil {
		t.Fatalf("RunControl: %v", err)
	}
	return res
}
