package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/softwarefaults/redundancy/internal/campaign"
)

// recordOne runs faultsim with -campaign-out into a fresh store and
// returns the single recorded run.
func recordOne(t *testing.T, args ...string) *campaign.Run {
	t.Helper()
	dir := t.TempDir()
	full := append([]string{"-campaign-out", dir}, args...)
	if err := run(full); err != nil {
		t.Fatalf("run %v = %v", args, err)
	}
	st, err := campaign.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ids, err := st.IDs()
	if err != nil || len(ids) != 1 {
		t.Fatalf("store holds %d runs (err %v), want 1", len(ids), err)
	}
	doc, err := st.Load(ids[0])
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return doc
}

func TestCampaignOutSimReplaysByteIdentical(t *testing.T) {
	for _, pattern := range []string{"sequential", "single", "nvp"} {
		t.Run(pattern, func(t *testing.T) {
			doc := recordOne(t, "-pattern", pattern, "-n", "3", "-p", "0.2",
				"-trials", "400", "-seed", "7", "-campaign-name", "faultsim-ut")
			if doc.Name != "faultsim-ut" {
				t.Fatalf("name = %q", doc.Name)
			}
			if got := doc.TotalTrials(); got != 400 {
				t.Fatalf("recorded %d trials, want 400", got)
			}
			cfg := doc.Points[0].Config
			if cfg.Mode != "sim" || cfg.Pattern != pattern || cfg.Seed != 7 {
				t.Fatalf("config = %+v", cfg)
			}
			// The recorded run must replay byte-identically: the sweep
			// runner regenerates the same trial rows faultsim recorded.
			rep, err := campaign.Replay(context.Background(), doc, nil)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if rep.Mismatched != 0 || rep.Matched == 0 {
				t.Fatalf("replay matched=%d mismatched=%d: %+v",
					rep.Matched, rep.Mismatched, rep.Points)
			}
		})
	}
}

func TestCampaignOutSimAggregatesOnly(t *testing.T) {
	doc := recordOne(t, "-pattern", "sequential", "-n", "2", "-p", "0.3",
		"-trials", "200", "-seed", "3", "-campaign-trials=false")
	if len(doc.Points[0].Seeds[0].Trials) != 0 {
		t.Fatal("trials kept despite -campaign-trials=false")
	}
	if doc.Points[0].Seeds[0].Aggregates.Deterministic.Trials != 200 {
		t.Fatalf("aggregates = %+v", doc.Points[0].Seeds[0].Aggregates.Deterministic)
	}
	// Aggregates-only runs still replay via the digest fallback.
	rep, err := campaign.Replay(context.Background(), doc, nil)
	if err != nil || rep.Err() != nil {
		t.Fatalf("aggregates-only replay: %v / %v", err, rep.Err())
	}
}

func TestCampaignOutChaosStoredButNotReplayable(t *testing.T) {
	doc := recordOne(t, "-chaos", "-pattern", "sequential", "-n", "3",
		"-seed", "11", "-chaos-out", filepath.Join(t.TempDir(), "chaos.json"))
	cfg := doc.Points[0].Config
	if cfg.Mode != "chaos" || cfg.Chaos == nil {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.Executor == (campaign.ExecutorConfig{}) {
		t.Fatal("chaos config did not echo the executor policy stack")
	}
	if doc.TotalTrials() != cfg.Chaos.Total() {
		t.Fatalf("recorded %d trials, campaign schedules %d",
			doc.TotalTrials(), cfg.Chaos.Total())
	}
	// Ground truth comes from the schedule: some rows must carry fault
	// labels, and the availability must be a sane fraction.
	faults := 0
	for _, tr := range doc.Points[0].Seeds[0].Trials {
		if tr.Fault != "" {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no trials labeled with schedule faults")
	}
	// The recorded resilience stack is timing-dependent: replay must
	// refuse rather than report spurious divergence.
	if _, err := campaign.Replay(context.Background(), doc, nil); !errors.Is(err, campaign.ErrNotReplayable) {
		t.Fatalf("chaos replay err = %v, want ErrNotReplayable", err)
	}
}

func TestConfigOutEchoesResolvedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "config.json")
	if err := run([]string{"-pattern", "sequential", "-n", "3", "-p", "0.25",
		"-trials", "50", "-seed", "9", "-config-out", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("config-out not written: %v", err)
	}
	var cfg campaign.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatalf("config-out not a campaign.Config: %v", err)
	}
	if cfg.Mode != "sim" || cfg.Pattern != "sequential" || cfg.Variants != 3 ||
		cfg.FailureP != 0.25 || cfg.Trials != 50 || cfg.Seed != 9 {
		t.Fatalf("resolved config = %+v", cfg)
	}
}

func TestCrashModeRejectsRecording(t *testing.T) {
	err := run([]string{"-crash", "-campaign-out", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "restart") {
		t.Fatalf("crash recording err = %v, want rejection", err)
	}
}

// TestBaselineKeysMatchCIFlags resolves the config of every committed
// quorum, control and gray baseline from the flags the CI jobs pass and
// checks its point key against the stored run: a drifted key would
// otherwise surface only as "MISSING in candidate" in campaign diff.
func TestBaselineKeysMatchCIFlags(t *testing.T) {
	const store = "../../baselines/campaigns"
	ciArgs := map[string]func(entry string) []string{
		"BASELINE_QUORUM": func(spec string) []string {
			return []string{"-adversary", spec, "-replicas", "5", "-net-requests", "500", "-seed", "1",
				"-campaign-out", ".ci-quorum", "-campaign-name", "quorum-" + spec, "-campaign-trials=false"}
		},
		"BASELINE_CONTROL": func(arm string) []string {
			return []string{"-control", arm, "-seed", "1", "-net-requests", "1500",
				"-campaign-out", ".ci-control", "-campaign-name", "control-" + arm, "-campaign-trials=false"}
		},
		"BASELINE_GRAY": func(arm string) []string {
			return []string{"-gray", arm, "-seed", "1", "-net-requests", "1500",
				"-campaign-out", ".ci-gray", "-campaign-name", "gray-" + arm, "-campaign-trials=false"}
		},
	}
	for file, argsFor := range ciArgs {
		data, err := os.ReadFile(filepath.Join(store, file))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for _, line := range lines {
			entry, id, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("%s: malformed line %q", file, line)
			}
			t.Run(file+"/"+entry, func(t *testing.T) {
				inv, err := parseInvocation(argsFor(entry))
				if err != nil {
					t.Fatalf("CI flags rejected: %v", err)
				}
				doc, err := campaign.ReadRunFile(filepath.Join(store, id+".json"))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := inv.cfg.Key(), doc.Points[0].Config.Key(); got != want {
					t.Errorf("CI flags resolve to key %q, committed run %s has %q", got, id, want)
				}
			})
		}
	}
}
