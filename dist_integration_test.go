package redundancy_test

// Experiment E24's acceptance test: the three-replica fleet of
// internal/fleet (the one cmd/faultsim -net-chaos runs) survives a
// seeded network-chaos campaign — partition of one replica, packet
// loss, latency spikes, connection resets — while a parallel-selection
// executor keeps availability at or above 99%, the heartbeat failure
// detector convicts the partitioned replica within its heartbeat
// window, hedged requests win during the rough phases, and nothing
// leaks a goroutine.

import (
	"testing"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/fleet"
)

func TestE24DistributedReplicaFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("network campaign runs for a few wall-clock seconds")
	}
	defer checkNoGoroutineLeak(t)()
	campaign := redundancy.DefaultNetworkCampaign(1, fleet.NetVictim)
	res, err := fleet.RunNet(fleet.NetConfig{Campaign: campaign})
	if err != nil {
		t.Fatalf("RunNet: %v", err)
	}

	total := len(res.Requests)
	if total < 20 {
		t.Fatalf("campaign finished after only %d requests; schedule too short to judge", total)
	}
	availability := res.Availability()
	t.Logf("E24: %d/%d requests served (availability %.2f%%) across %v of network chaos",
		res.Served(), total, 100*availability, campaign.Total())
	if availability < 0.99 {
		t.Errorf("availability %.4f under network chaos, want >= 0.99", availability)
	}
	if !res.PartitionSeen {
		t.Fatal("campaign never entered its partition phase")
	}
	suspectWindow := 2*100*time.Millisecond + 80*time.Millisecond + 300*time.Millisecond
	if res.SuspectAfter == 0 {
		t.Errorf("detector never convicted the partitioned replica %s", fleet.NetVictim)
	} else if res.SuspectAfter > suspectWindow {
		t.Errorf("detector took %v to suspect %s, want within %v", res.SuspectAfter, fleet.NetVictim, suspectWindow)
	} else {
		t.Logf("E24: detector convicted %s %v after the partition began", fleet.NetVictim, res.SuspectAfter)
	}

	// Hedges fired and won somewhere in the rough phases.
	var hedges, wins, suspects int64
	for _, snap := range res.Observed {
		hedges += snap.Hedges
		wins += snap.HedgeWins
		suspects += snap.ReplicaSuspects
	}
	if hedges == 0 {
		t.Error("no hedged attempts launched across the whole campaign")
	}
	if wins == 0 {
		t.Error("no hedged attempt ever won; tail-latency defense inert")
	}
	if suspects == 0 {
		t.Error("no replica suspicion recorded by the observation layer")
	}
	t.Logf("E24: %d hedges launched, %d won; %d suspicion transitions", hedges, wins, suspects)
}
