package main

// The -control mode prints and records the internal/fleet E28 run: a
// three-replica fleet that accumulates an aging replica, an outright
// process death, and a deterministic bohrbug, run with the autonomic
// controller either live or frozen behind its kill switch. The static
// arm collapses once all three replicas are broken; the controlled arm
// replaces, rejuvenates and substitutes its way to the objective.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/fleet"
	"github.com/softwarefaults/redundancy/internal/stats"
)

// runControl runs the fleet and reports it.
func runControl(cfg fleet.ControlConfig, set recorderSettings, runCfg campaign.Config) error {
	res, err := fleet.RunControl(cfg)
	if err != nil {
		return err
	}
	arm, config := "static", "static (controller frozen)"
	if cfg.On {
		arm, config = "controlled", "autonomic (controller live)"
	}
	sched := res.Schedule
	tbl := stats.NewTable(fmt.Sprintf("Autonomic control plane, %s arm (seed %d)", arm, cfg.Seed), "measure", "value")
	tbl.AddRow("configuration", config)
	tbl.AddRow("replicas (initial)", strings.Join(res.Names, ", "))
	tbl.AddRow("fault schedule", fmt.Sprintf("r1 ages (wear-out every %d serves), r2 killed at request %d, r3 bohrbug from input %d",
		sched.AgingLimit, sched.KillAt, sched.BugAt))
	addWorkloadRows(tbl, res.Workload, "served", true)
	tbl.AddRow("SLO objective", fmt.Sprintf("%.3f within %s", 0.999, fleet.ControlObjective))
	if len(res.Actions) == 0 {
		tbl.AddRow("controller actions", "none")
	} else {
		kinds := make([]string, 0, len(res.Actions))
		for kind := range res.Actions {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for i, kind := range kinds {
			kinds[i] = fmt.Sprintf("%s=%d", kind, res.Actions[kind])
		}
		tbl.AddRow("controller actions", strings.Join(kinds, " "))
	}
	tbl.AddRow("actions suppressed (rate limit)", res.Suppressed)
	if res.MTTR > 0 {
		tbl.AddRow("replacement MTTR", res.MTTR.Round(time.Millisecond))
	} else {
		tbl.AddRow("replacement MTTR", "n/a (no replacement)")
	}
	tbl.AddRow("hedge delay at exit", res.HedgeAfter)
	tbl.AddRow("retry deposit at exit", fmt.Sprintf("%g", res.Deposit))
	tbl.AddRow("final membership", membership(res.Replicas, nil, true))
	tbl.AddRow("endpoints at exit", strings.Join(res.Endpoints, ", "))
	fmt.Println(tbl)
	if set.storeDir == "" {
		return nil
	}
	seed := fleetSeed(cfg.Seed, res.Workload, "", res.Observed, res.SLO)
	if len(res.Actions) > 0 {
		seed.Aggregates.Actions = res.Actions
	}
	return saveRun(set, runCfg, seed)
}

// resolvedControlConfig builds the config block for a -control run.
func resolvedControlConfig(seed uint64, requests int, controlOn bool) campaign.Config {
	return campaign.Config{
		Mode:     "control",
		Pattern:  "single",
		Variants: 3,
		Seed:     seed,
		Requests: requests,
		Trials:   requests,
		Control:  onOff(controlOn),
		Executor: campaign.ExecutorConfig{
			BreakerConsecutiveFailures: 8,
			BreakerOpenFor:             faultmodel.Duration(fleet.DefaultControlTiming.BreakerOpenFor),
			CallTimeout:                faultmodel.Duration(150 * time.Millisecond),
			HedgeAfter:                 faultmodel.Duration(25 * time.Millisecond),
			MaxHedges:                  2,
			RetryBudget:                50,
			RetryBaseBackoff:           faultmodel.Duration(time.Millisecond),
			RetryMaxBackoff:            faultmodel.Duration(5 * time.Millisecond),
			RetryJitter:                0.5,
		},
	}
}

func onOff(on bool) string { return boolWord(on, "on", "off") }
