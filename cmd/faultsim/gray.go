package main

// The -gray mode prints and records the internal/fleet E29 run: a
// three-replica fleet whose configured primary turns fail-slow over the
// middle of the run while heartbeating on time and answering
// correctly. -gray off runs it unmitigated (no hedging, no ejector: the
// fleet p99 inflates by the full limp factor); -gray on arms the
// mitigation stack (hedging, latency-outlier ejection, the gray-failure
// rejuvenation policy). Both arms inject the same request-keyed fault,
// so their tail amplification compares directly.

import (
	"fmt"
	"strings"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/fleet"
	"github.com/softwarefaults/redundancy/internal/stats"
)

// The CLI's E29 time constants: a 1ms healthy service time and a hedge
// delay of a few healthy latencies, far under the limp.
const (
	grayBaseLatency = time.Millisecond
	grayHedgeAfter  = 3 * time.Millisecond
)

// runGray runs the fleet and reports it.
func runGray(cfg fleet.GrayConfig, set recorderSettings, runCfg campaign.Config) error {
	res, err := fleet.RunGray(cfg)
	if err != nil {
		return err
	}
	arm, config := "unmitigated", "unmitigated (no hedge, no ejector)"
	if cfg.On {
		arm, config = "mitigated", "mitigated (hedge + ejector + rejuvenation policy)"
	}
	ej := res.Ejection
	tbl := stats.NewTable(fmt.Sprintf("Gray-failure fleet, %s arm (seed %d)", arm, cfg.Seed), "measure", "value")
	tbl.AddRow("configuration", config)
	tbl.AddRow("replicas", strings.Join(res.Names, ", "))
	tbl.AddRow("fault", fmt.Sprintf("%s fail-slow %s ×%g over requests [%d, %d)",
		fleet.GrayLimper, cfg.Profile, cfg.Factor, res.LimpFrom, res.LimpUntil))
	addWorkloadRows(tbl, res.Workload, "served", false)
	tbl.AddRow("wrong answers", res.WrongAnswers())
	tbl.AddRow("baseline p99 (healthy phase)", res.BaselineP99.Round(time.Microsecond))
	tbl.AddRow("run p99", res.RunP99.Round(time.Microsecond))
	tbl.AddRow("tail amplification", fmt.Sprintf("%.1f×", res.Amplification))
	if cfg.On {
		tbl.AddRow("ejection TPR", fmt.Sprintf("%.2f (%d/%d limpers ejected)", ej.TPR, ej.EjectedLimpers, ej.Limpers))
		tbl.AddRow("ejection FPR", fmt.Sprintf("%.2f (%d/%d healthy ejected)", ej.FPR, ej.EjectedHealthy, ej.Healthy))
		if res.TimeToEject > 0 {
			tbl.AddRow("time to eject", res.TimeToEject.Round(time.Millisecond))
		} else {
			tbl.AddRow("time to eject", "n/a (never ejected)")
		}
		tbl.AddRow("reinstatements", ej.Reinstated)
		var ejections, probes int64
		for _, snap := range res.Observed {
			ejections += snap.Ejections
			probes += snap.ProbeLaunches
		}
		tbl.AddRow("ejections", ejections)
		tbl.AddRow("probes launched", probes)
		tbl.AddRow("rejuvenations", res.Rejuvenations)
		ewmas := make([]string, len(res.Ejector))
		for i, ep := range res.Ejector {
			ewmas[i] = fmt.Sprintf("%s=%s", ep.Endpoint, ep.EWMA.Round(10*time.Microsecond))
		}
		tbl.AddRow("latency EWMAs at exit", strings.Join(ewmas, " "))
	}
	tbl.AddRow("final membership", membership(res.Replicas, nil, true))
	fmt.Println(tbl)
	if set.storeDir == "" {
		return nil
	}
	seed := fleetSeed(cfg.Seed, res.Workload, "fleet", res.Observed, nil)
	seed.Aggregates.Ejection = ej
	if res.Rejuvenations > 0 {
		seed.Aggregates.Actions = map[string]int{"rejuvenate": res.Rejuvenations}
	}
	return saveRun(set, runCfg, seed)
}

// resolvedGrayConfig builds the config block for a -gray run.
func resolvedGrayConfig(seed uint64, requests int, grayOn bool, spec string) campaign.Config {
	cfg := campaign.Config{
		Mode:      "gray",
		Pattern:   "single",
		Variants:  3,
		Seed:      seed,
		Requests:  requests,
		Trials:    requests,
		Gray:      onOff(grayOn),
		GrayFault: spec,
		Executor: campaign.ExecutorConfig{
			CallTimeout: faultmodel.Duration(150 * time.Millisecond),
		},
	}
	if grayOn {
		cfg.Executor.HedgeAfter = faultmodel.Duration(grayHedgeAfter)
		cfg.Executor.MaxHedges = 2
	}
	return cfg
}
