package main

// The -adversary mode prints and records the internal/fleet E27 run: a
// 2k+1 quorum fleet whose first `count` replicas lie with the chosen
// strategy. The table shows wrong answers outvoted, availability held,
// and the liars convicted without ever missing a heartbeat; with
// -campaign-out the run stores per-trial ground truth (which requests
// the adversaries attacked) and the conviction TPR/FPR that `campaign
// diff` gates in CI.

import (
	"fmt"
	"strings"

	redundancy "github.com/softwarefaults/redundancy"
	"github.com/softwarefaults/redundancy/internal/campaign"
	"github.com/softwarefaults/redundancy/internal/faultmodel"
	"github.com/softwarefaults/redundancy/internal/fleet"
	"github.com/softwarefaults/redundancy/internal/stats"
)

// resolvedQuorumConfig builds the config block for an -adversary run.
func resolvedQuorumConfig(seed uint64, replicas int, spec string, requests int) campaign.Config {
	return campaign.Config{
		Mode:      "quorum",
		Pattern:   "quorum",
		Replicas:  replicas,
		Adversary: spec,
		Trials:    requests,
		Requests:  requests,
		Seed:      seed,
		Executor: campaign.ExecutorConfig{
			CallTimeout: faultmodel.Duration(fleet.QuorumCallTimeout),
		},
	}
}

// runQuorum runs the fleet and reports it.
func runQuorum(cfg fleet.QuorumConfig, set recorderSettings, runCfg campaign.Config) error {
	res, err := fleet.RunQuorum(cfg)
	if err != nil {
		return err
	}
	conv := res.Conviction
	tbl := stats.NewTable(
		fmt.Sprintf("Byzantine quorum fleet (n=%d, k=%d, adversary %s:%d, seed %d)",
			cfg.Replicas, redundancy.TolerableFaults(cfg.Replicas), cfg.Strategy, cfg.Liars, cfg.Seed),
		"measure", "value")
	tbl.AddRow("replicas", strings.Join(res.Names, ", "))
	tbl.AddRow("liars", cfg.Liars)
	addWorkloadRows(tbl, res.Workload, "served correctly", true)
	outvoted := 0
	for _, r := range res.Requests {
		if r.Detected {
			outvoted++
		}
	}
	tbl.AddRow("requests attacked", res.Attacked())
	tbl.AddRow("wrong answers outvoted", outvoted)
	tbl.AddRow("wrong answers accepted", res.WrongAnswers())
	var quorums, disagreements, outvotedEvents int64
	for _, snap := range res.Observed {
		quorums += snap.QuorumsReached
		disagreements += snap.VoteDisagreement
		outvotedEvents += snap.ReplicasOutvoted
	}
	tbl.AddRow("quorum verdicts", quorums)
	tbl.AddRow("vote disagreements", disagreements)
	tbl.AddRow("replica replies outvoted", outvotedEvents)
	tbl.AddRow("final membership (* = liar)", membership(res.Replicas, res.Liars, false))
	// Accusations are the quorum's outvote reports (the track that
	// convicts a liar, which acks every heartbeat); misses are heartbeat
	// silence.
	evidence := make([]string, len(res.Replicas))
	for i, r := range res.Replicas {
		evidence[i] = fmt.Sprintf("%s=%d/%d", r.Name, r.Accusations, r.Misses)
	}
	tbl.AddRow("evidence (accusations/misses)", strings.Join(evidence, " "))
	tbl.AddRow("conviction TPR", fmt.Sprintf("%.2f (%d/%d liars convicted)",
		conv.TPR, conv.ConvictedLiars, conv.Liars))
	tbl.AddRow("conviction FPR", fmt.Sprintf("%.2f (%d/%d honest convicted)",
		conv.FPR, conv.ConvictedHonest, conv.Honest))
	fmt.Println(tbl)
	if set.storeDir == "" {
		return nil
	}
	seed := fleetSeed(cfg.Seed, res.Workload, "quorum", res.Observed, nil)
	seed.Aggregates.Conviction = conv
	return saveRun(set, runCfg, seed)
}
