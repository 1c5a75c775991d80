package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy"
)

// The tracer times every layer of the request path from outside the
// program, through the seams the public facade accepts: a Variant around
// the executor's child and around each served replica, a DialFunc and
// its net.Conn for the client side of the transport, a net.Listener and
// its net.Conn for the server side, and an Adjudicator for the vote.
// The wrappers are always installed; while tracing is off they only
// forward, so the untraced run measures the same call graph.

// Layer names, one per module on the request path.
const (
	layerPattern   = "pattern"
	layerClient    = "dist.client"
	layerTransport = "dist.transport"
	layerServer    = "dist.server"
	layerReplica   = "replica"
	layerVote      = "vote"
)

// Span operations within a layer.
const (
	opExecute    = "execute"    // pattern: the executor; replica: an in-process variant
	opCall       = "call"       // dist.client: Remote or Quorum Execute
	opAttempt    = "attempt"    // dist.transport: one request/reply exchange on a connection
	opDial       = "dial"       // dist.transport: opening a connection
	opServe      = "serve"      // dist.server: request read to reply written; replica: served execution
	opAdjudicate = "adjudicate" // vote
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. Req is the request's sequence number, or 0
// where the boundary cannot see which request it carries (a server
// connection reads frames, not requests). Parent is filled in by link.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Ep     string `json:"ep,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Out    int    `json:"bytes_out,omitempty"`
	In     int    `json:"bytes_in,omitempty"`
	Writes int    `json:"writes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds the spans of one traced run in memory.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span

	// deadlines maps a request's unique deadline (Unix ns) to its
	// sequence number. The client transport passes the caller's deadline
	// to every connection and dial it makes for that request, which is
	// how the connection wrappers learn which request they carry.
	deadlines sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = uint64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// requestBudget is the deadline every wire request carries.
const requestBudget = time.Second

// deadline returns the deadline for request seq issued at now. While
// tracing it is made unique and registered; release unregisters it.
func (t *tracer) deadline(now time.Time, seq uint64) time.Time {
	d := now.Add(requestBudget)
	if !t.on.Load() {
		return d
	}
	for {
		if _, taken := t.deadlines.LoadOrStore(d.UnixNano(), seq); !taken {
			return d
		}
		d = d.Add(time.Nanosecond)
	}
}

func (t *tracer) release(d time.Time) { t.deadlines.Delete(d.UnixNano()) }

// reqOf returns the request whose deadline is d.
func (t *tracer) reqOf(d time.Time) (uint64, bool) {
	v, ok := t.deadlines.Load(d.UnixNano())
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// reqOfCtx returns the request whose deadline ctx carries, or 0.
func (t *tracer) reqOfCtx(ctx context.Context) uint64 {
	if d, ok := ctx.Deadline(); ok {
		if req, ok := t.reqOf(d); ok {
			return req
		}
	}
	return 0
}

// tracedVariant times a Variant: the executor's child (dist.client, or
// an in-process replica) or a served replica.
type tracedVariant[I, O any] struct {
	redundancy.Variant[I, O]
	t     *tracer
	layer string
	op    string
	id    func(I) uint64
}

func (v *tracedVariant[I, O]) Execute(ctx context.Context, in I) (O, error) {
	if !v.t.on.Load() {
		return v.Variant.Execute(ctx, in)
	}
	start := v.t.now()
	out, err := v.Variant.Execute(ctx, in)
	v.t.add(span{Req: v.id(in), Layer: v.layer, Op: v.op, Ep: v.Name(), Start: start, End: v.t.now()})
	return out, err
}

// tracedAdjudicator times the vote. An adjudicator sees replies, not
// inputs, so id maps a reply back to its request.
type tracedAdjudicator[O any] struct {
	redundancy.Adjudicator[O]
	t  *tracer
	id func(O) (uint64, bool)
}

func (a *tracedAdjudicator[O]) Adjudicate(results []redundancy.Result[O]) (O, error) {
	if !a.t.on.Load() {
		return a.Adjudicator.Adjudicate(results)
	}
	start := a.t.now()
	out, err := a.Adjudicator.Adjudicate(results)
	end := a.t.now()
	var req uint64
	for _, r := range results {
		if r.OK() {
			if id, ok := a.id(r.Value); ok {
				req = id
				break
			}
		}
	}
	a.t.add(span{Req: req, Layer: layerVote, Op: opAdjudicate, Start: start, End: end})
	return out, err
}

// dial wraps the client side of the transport for endpoint ep.
func (t *tracer) dial(ep string, dial redundancy.DialFunc) redundancy.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		on := t.on.Load()
		start := t.now()
		c, err := dial(ctx)
		if on {
			t.add(span{Req: t.reqOfCtx(ctx), Layer: layerTransport, Op: opDial, Ep: ep, Start: start, End: t.now()})
		}
		if err != nil {
			return nil, err
		}
		return &clientConn{Conn: c, t: t, ep: ep}, nil
	}
}

// clientConn groups a client connection's I/O into attempts: one
// request written and its reply read. An attempt starts when the
// transport sets the connection deadline of a known request, or at a
// write that follows a read; it ends at the next start or at Close.
type clientConn struct {
	net.Conn
	t  *tracer
	ep string

	mu  sync.Mutex
	req uint64
	att *span // open attempt; nil when none
}

func (c *clientConn) SetDeadline(d time.Time) error {
	if c.t.on.Load() {
		if req, ok := c.t.reqOf(d); ok {
			c.mu.Lock()
			c.flush()
			c.req = req
			c.mu.Unlock()
		}
	}
	return c.Conn.SetDeadline(d)
}

func (c *clientConn) Write(b []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Write(b)
	}
	start := c.t.now()
	n, err := c.Conn.Write(b)
	end := c.t.now()
	c.mu.Lock()
	if c.att != nil && c.att.In > 0 {
		c.flush()
	}
	a := c.io(start, end)
	a.Out += n
	a.Writes++
	c.mu.Unlock()
	return n, err
}

func (c *clientConn) Read(b []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Read(b)
	}
	start := c.t.now()
	n, err := c.Conn.Read(b)
	end := c.t.now()
	c.mu.Lock()
	c.io(start, end).In += n
	c.mu.Unlock()
	return n, err
}

func (c *clientConn) Close() error {
	c.mu.Lock()
	c.flush()
	c.mu.Unlock()
	return c.Conn.Close()
}

// io accounts one I/O call in [start, end] to the open attempt, opening
// one if needed. Caller holds c.mu.
func (c *clientConn) io(start, end int64) *span {
	if c.att == nil {
		c.att = &span{Req: c.req, Layer: layerTransport, Op: opAttempt, Ep: c.ep, Start: start}
	}
	c.att.End = end
	return c.att
}

// flush records the open attempt. Caller holds c.mu.
func (c *clientConn) flush() {
	if c.att != nil {
		c.t.add(*c.att)
		c.att = nil
	}
}

// tracedListener wraps the server side of the transport for endpoint ep.
type tracedListener struct {
	net.Listener
	t  *tracer
	ep string
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, t: l.t, ep: l.ep}, nil
}

// serverConn times each call a replica server handles: from the read
// that brings the first bytes of a request to the end of the write of
// its reply. A server handles one call at a time per connection.
type serverConn struct {
	net.Conn
	t  *tracer
	ep string

	mu   sync.Mutex
	call *span
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.t.on.Load() {
		c.mu.Lock()
		if c.call == nil {
			c.call = &span{Layer: layerServer, Op: opServe, Ep: c.ep, Start: c.t.now()}
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.t.on.Load() {
		c.mu.Lock()
		if c.call != nil {
			c.call.End = c.t.now()
			c.t.add(*c.call)
			c.call = nil
		}
		c.mu.Unlock()
	}
	return n, err
}

// traceFile is the exported form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// export links the recorded spans and writes them to path as JSON.
func (t *tracer) export(path, workload string, seed uint64) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	link(spans)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(traceFile{Workload: workload, Seed: seed, Spans: spans}); err != nil {
		f.Close()
		return fmt.Errorf("export trace: %w", err)
	}
	return f.Close()
}

// readTrace loads an exported trace.
func readTrace(path string) (traceFile, error) {
	var tf traceFile
	data, err := os.ReadFile(path)
	if err != nil {
		return tf, fmt.Errorf("read trace: %w", err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return tf, fmt.Errorf("read trace %s: %w", path, err)
	}
	return tf, nil
}
