package main

// The -net / -net-chaos modes print and record the internal/fleet E24
// run: a three-replica fleet behind the framed RPC transport, driven by
// a parallel-selection executor over hedging RemoteVariants. -net runs
// it over a clean in-memory network; -net-chaos wraps every dial path
// in a seeded NetworkCampaign (partition, loss, duplication,
// reordering, latency spikes, resets).

import (
	"fmt"
	"strings"
	"time"

	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/fleet"
	"github.com/softwarefaults/redundancy/internal/stats"
)

// replicaTracePath derives a replica's trace-file path from the
// -trace-out path: traces.json -> traces-r1.json.
func replicaTracePath(traceOut, name string) string {
	base := strings.TrimSuffix(traceOut, ".json")
	return fmt.Sprintf("%s-%s.json", base, name)
}

// runNet runs the fleet; camp is nil for a clean -net run. A non-empty
// traceOut gives every replica server its own trace recorder, exported
// to <traceOut base>-<name>.json — one file per process, ready for
// `obsreport assemble` (the client's spans land in the -trace-out file
// main writes).
func runNet(seed uint64, cfg fleet.NetConfig, traceOut string, set recorderSettings, runCfg campaign.Config) error {
	cfg.ReplicaTraces = traceOut != ""
	res, err := fleet.RunNet(cfg)
	if err != nil {
		return err
	}
	for _, name := range res.Names {
		if rec := res.ReplicaTraces[name]; rec != nil {
			dumpTraces(rec, replicaTracePath(traceOut, name))
		}
	}

	camp := cfg.Campaign
	title := fmt.Sprintf("Distributed replica fleet (clean network, seed %d)", seed)
	if camp != nil {
		title = fmt.Sprintf("Distributed replica fleet under %q network chaos (seed %d)", camp.Name, seed)
	}
	tbl := stats.NewTable(title, "measure", "value")
	tbl.AddRow("replicas", strings.Join(res.Names, ", "))
	if camp != nil {
		phases := make([]string, len(camp.Phases))
		for i, p := range camp.Phases {
			phases[i] = p.Name
		}
		tbl.AddRow("campaign phases", strings.Join(phases, " → "))
		tbl.AddRow("campaign duration", camp.Total())
	}
	addWorkloadRows(tbl, res.Workload, "served", true)
	var hedges, wins, suspects, deaths int64
	for _, snap := range res.Observed {
		hedges += snap.Hedges
		wins += snap.HedgeWins
		suspects += snap.ReplicaSuspects
		deaths += snap.ReplicaDeaths
	}
	tbl.AddRow("hedges launched", hedges)
	tbl.AddRow("hedges won", wins)
	tbl.AddRow("replica suspicions", suspects)
	tbl.AddRow("replica deaths", deaths)
	peakOn := res.PeakOn
	if peakOn == "" {
		peakOn = "none"
	}
	tbl.AddRow("SLO fast-burn peak", fmt.Sprintf("%.1f on %s (threshold 14.4)", res.PeakBurn, peakOn))
	tbl.AddRow("SLO fast-burn final (via-"+fleet.NetVictim+")", fmt.Sprintf("%.1f", res.FinalBurn))
	tbl.AddRow("SLO breaching at exit", boolWord(res.SLO.Breaching(), "YES", "no"))
	tbl.AddRow("final membership", membership(res.Replicas, nil, false))
	fmt.Println(tbl)
	if set.storeDir == "" {
		return nil
	}
	return saveRun(set, runCfg, fleetSeed(runCfg.Seed, res.Workload, "", res.Observed, res.SLO.Snapshot()))
}

// addWorkloadRows prints a fleet workload's request, served and
// availability rows, then with latency its p50 and p99; servedLabel
// names the served row.
func addWorkloadRows(tbl *stats.Table, w fleet.Workload, servedLabel string, latency bool) {
	tbl.AddRow("requests", len(w.Requests))
	tbl.AddRow(servedLabel, w.Served())
	tbl.AddRow("availability", fmt.Sprintf("%.4f", w.Availability()))
	if latency && len(w.Requests) > 0 {
		tbl.AddRow("latency p50", w.Percentile(50).Round(time.Microsecond))
		tbl.AddRow("latency p99", w.Percentile(99).Round(time.Microsecond))
	}
}

// membership renders the detector's end state, one name=state entry per
// replica: marked replicas get a "*", and evidence appends the ledger.
func membership(replicas []fleet.Replica, marked map[string]bool, evidence bool) string {
	parts := make([]string, len(replicas))
	for i, r := range replicas {
		mark := ""
		if marked[r.Name] {
			mark = "*"
		}
		parts[i] = fmt.Sprintf("%s%s=%s", r.Name, mark, r.State)
		if evidence {
			parts[i] += fmt.Sprintf("(miss=%d,accuse=%d,slow=%d)", r.Misses, r.Accusations, r.Slowness)
		}
	}
	return strings.Join(parts, " ")
}
