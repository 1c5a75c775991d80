package redundancy_test

// Experiment E27's acceptance test: the 2k+1 quorum fleet of
// internal/fleet (the one cmd/faultsim -adversary runs) under a lying-
// replica adversary. Replicas that execute correctly, ack every
// heartbeat, and return plausible wrong answers — always, on an
// intermittent input subset, or colluding on the same inputs with the
// same lie — must never get a wrong answer accepted while the liars
// number at most k; availability holds, and the vote-disagreement
// accusation channel convicts the liars (TPR >= 0.9) without framing
// honest replicas (FPR <= 0.05). The converse matters as much: the same
// colluding pair that loses every vote at n=5 wins them at n=3, because
// 2 > k=1 — the paper's 2k+1 sizing bound demonstrated from both sides.

import (
	"fmt"
	"testing"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/fleet"
)

func TestE27ByzantineQuorum(t *testing.T) {
	defer checkNoGoroutineLeak(t)()

	cases := []struct {
		strategy redundancy.AdversaryStrategy
		liars    int
	}{
		{redundancy.AdversaryAlways, 1},
		{redundancy.AdversaryIntermittent, 2},
		{redundancy.AdversaryCollude, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s_%d_of_5", tc.strategy, tc.liars), func(t *testing.T) {
			res := runE27Fleet(t, 5, tc.strategy, tc.liars)
			if wrong := res.WrongAnswers(); wrong != 0 {
				t.Errorf("%d wrong answers accepted; a quorum of 5 must outvote %d %s liars",
					wrong, tc.liars, tc.strategy)
			}
			if avail := res.Availability(); avail < 0.99 {
				t.Errorf("availability %.4f < 0.99 (%d/%d served)", avail, res.Served(), len(res.Requests))
			}
			if tpr := res.Conviction.TPR; tpr < 0.9 {
				t.Errorf("conviction TPR %.2f < 0.9: liars escaped (membership %v)", tpr, res.Replicas)
			}
			if fpr := res.Conviction.FPR; fpr > 0.05 {
				t.Errorf("conviction FPR %.2f > 0.05: honest replicas framed (membership %v)", fpr, res.Replicas)
			}
		})
	}

	t.Run("collude_2_of_3_breaks_the_quorum", func(t *testing.T) {
		// The same cartel of 2, now a majority: n=3 tolerates only k=1.
		res := runE27Fleet(t, 3, redundancy.AdversaryCollude, 2)
		if res.WrongAnswers() == 0 {
			t.Errorf("colluding majority served no wrong answers at n=3 — the 2k+1 bound should be violated here")
		}
		if res.Attacked() == 0 {
			t.Fatalf("adversary never attacked; test is vacuous")
		}
	})
}

// runE27Fleet drives 400 calls through a quorum of n replicas whose
// first liars members lie with the given strategy.
func runE27Fleet(t *testing.T, n int, strategy redundancy.AdversaryStrategy, liars int) *fleet.QuorumResult {
	t.Helper()
	res, err := fleet.RunQuorum(fleet.QuorumConfig{
		Seed:     7,
		Replicas: n,
		Strategy: strategy,
		Liars:    liars,
		Requests: 400,
	})
	if err != nil {
		t.Fatalf("RunQuorum: %v", err)
	}
	return res
}
