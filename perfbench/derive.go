package main

import (
	"sort"
)

// link sets each span's Parent from the layer structure of the request
// path. Within one request: dist.client and in-process replicas hang off
// the executor; the vote hangs off the dist.client call that contains
// it, or the executor; transport spans hang off the dist.client call
// that contains their start; a served replica hangs off the transport
// attempt to its endpoint. Spans of no request (dist.server calls) stay
// roots.
func link(spans []span) {
	for _, idx := range byRequest(spans) {
		var exec *span
		var clients, attempts []*span
		for _, i := range idx {
			s := &spans[i]
			switch {
			case s.Layer == layerPattern:
				exec = s
			case s.Layer == layerClient:
				clients = append(clients, s)
			case s.Layer == layerTransport && s.Op == opAttempt:
				attempts = append(attempts, s)
			}
		}
		if exec == nil {
			continue
		}
		// within returns the client call containing instant at, falling
		// back to the executor.
		within := func(at int64) uint64 {
			for _, c := range clients {
				if c.Start <= at && at <= c.End {
					return c.ID
				}
			}
			if len(clients) > 0 {
				return clients[0].ID
			}
			return exec.ID
		}
		for _, i := range idx {
			s := &spans[i]
			switch s.Layer {
			case layerPattern:
				s.Parent = 0
			case layerClient:
				s.Parent = exec.ID
			case layerVote, layerTransport:
				s.Parent = within(s.Start)
			case layerReplica:
				s.Parent = exec.ID
				for _, a := range attempts {
					if s.Op == opServe && a.Ep == s.Ep {
						s.Parent = a.ID
						break
					}
				}
			}
		}
	}
}

// byRequest groups span indexes by request, skipping spans of none.
func byRequest(spans []span) map[uint64][]int {
	out := make(map[uint64][]int)
	for i, s := range spans {
		if s.Req != 0 {
			out[s.Req] = append(out[s.Req], i)
		}
	}
	return out
}

// interval is a half-open [lo, hi) stretch of tracer time.
type interval struct{ lo, hi int64 }

// coverLen is the length of the union of intervals; it sorts them.
func coverLen(iv []interval) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var total, lo, hi int64
	open := false
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if !open || x.lo > hi {
			if open {
				total += hi - lo
			}
			lo, hi, open = x.lo, x.hi, true
		} else if x.hi > hi {
			hi = x.hi
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// layerRank breaks ties between overlapping spans at the same depth: a
// vote that runs while a straggler attempt still waits on the wire is
// the work the request is doing, the wait is not.
var layerRank = map[string]int{layerVote: 2, layerReplica: 1}

// requestSelf returns the self time of each layer within one request,
// and the time each layer's spans cover. Each span is first clipped to
// its parent, so a straggler that outlives the call that launched it is
// not charged to the request. Every instant of the executor span is then
// charged to the deepest span active at that instant (ties broken by
// layerRank), so a layer's self time is its cover minus what its
// children cover, and the self times of all layers sum to the executor
// span even when parallel children overlap. spans must be linked.
func requestSelf(spans []span, idx []int) (self, cover map[string]int64) {
	byID := make(map[uint64]int, len(idx))
	for _, i := range idx {
		byID[spans[i].ID] = i
	}
	type clippedSpan struct {
		interval
		depth int
	}
	clipped := make(map[uint64]clippedSpan, len(idx))
	var clip func(i int) clippedSpan
	clip = func(i int) clippedSpan {
		s := spans[i]
		if c, ok := clipped[s.ID]; ok {
			return c
		}
		c := clippedSpan{interval: interval{s.Start, s.End}}
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			pc := clip(p)
			c.lo, c.hi = max(c.lo, pc.lo), min(c.hi, pc.hi)
			c.hi = max(c.hi, c.lo)
			c.depth = pc.depth + 1
		}
		clipped[s.ID] = c
		return c
	}
	layerIv := make(map[string][]interval)
	var points []int64
	for _, i := range idx {
		c := clip(i)
		layerIv[spans[i].Layer] = append(layerIv[spans[i].Layer], c.interval)
		points = append(points, c.lo, c.hi)
	}
	cover = make(map[string]int64, len(layerIv))
	for l, iv := range layerIv {
		cover[l] = coverLen(iv)
	}
	sort.Slice(points, func(a, b int) bool { return points[a] < points[b] })
	self = make(map[string]int64, len(layerIv))
	for k := 1; k < len(points); k++ {
		lo, hi := points[k-1], points[k]
		if hi == lo {
			continue
		}
		best, bestDepth := "", -1
		for _, i := range idx {
			c := clipped[spans[i].ID]
			l := spans[i].Layer
			if c.lo <= lo && hi <= c.hi && (c.depth > bestDepth || c.depth == bestDepth && layerRank[l] > layerRank[best]) {
				best, bestDepth = l, c.depth
			}
		}
		if best != "" {
			self[best] += hi - lo
		}
	}
	return self, cover
}

// metric is one reported figure: end-to-end or per-layer.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// deriveLayers computes the per-layer metrics of a linked trace. limper
// names the replica injected as fail-slow ("" when there is none).
func deriveLayers(spans []span, limper string) []metric {
	var (
		requests                         int
		patternSelf, clientSelf, ioCover int64
		attempts, dials, writes          int
		bytesOut, bytesIn                int
		serverCalls, served, limped      int
		serverTime, servedTime           int64
		replicaCalls                     int
		replicaTime                      int64
		votes                            int
		voteTime                         int64
	)
	for _, s := range spans {
		switch {
		case s.Layer == layerPattern:
			requests++
		case s.Layer == layerTransport && s.Op == opAttempt:
			attempts++
			writes += s.Writes
			bytesOut += s.Out
			bytesIn += s.In
		case s.Layer == layerTransport && s.Op == opDial:
			dials++
		case s.Layer == layerServer:
			serverCalls++
			serverTime += s.dur()
		case s.Layer == layerReplica:
			replicaCalls++
			replicaTime += s.dur()
			if s.Op == opServe {
				served++
				servedTime += s.dur()
				if s.Ep == limper {
					limped++
				}
			}
		case s.Layer == layerVote:
			votes++
			voteTime += s.dur()
		}
	}
	for _, idx := range byRequest(spans) {
		self, cover := requestSelf(spans, idx)
		patternSelf += self[layerPattern]
		clientSelf += self[layerClient]
		ioCover += cover[layerTransport]
	}
	perReq := func(x float64) float64 { return ratio(x, float64(requests)) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return []metric{
		{"pattern.self_us_per_req", perReq(us(patternSelf)), "us"},
		{"dist.client.self_us_per_req", perReq(us(clientSelf)), "us"},
		{"dist.client.attempts_per_req", perReq(float64(attempts)), "count"},
		{"dist.client.limper_share", ratio(float64(limped), float64(served)), "ratio"},
		{"dist.transport.bytes_out_per_req", perReq(float64(bytesOut)), "B"},
		{"dist.transport.bytes_in_per_req", perReq(float64(bytesIn)), "B"},
		{"dist.transport.writes_per_req", perReq(float64(writes)), "count"},
		{"dist.transport.io_wait_us_per_req", perReq(us(ioCover)), "us"},
		{"dist.transport.dials_per_req", perReq(float64(dials)), "count"},
		{"dist.server.self_us_per_call", ratio(us(serverTime-servedTime), float64(serverCalls)), "us"},
		{"replica.exec_us_per_call", ratio(us(replicaTime), float64(replicaCalls)), "us"},
		{"vote.adjudications_per_req", perReq(float64(votes)), "count"},
		{"vote.adjudicate_us_per_req", perReq(us(voteTime)), "us"},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
