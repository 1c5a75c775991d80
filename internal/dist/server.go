package dist

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"github.com/softwarefaults/redundancy/internal/core"
	"github.com/softwarefaults/redundancy/internal/obs"
	"github.com/softwarefaults/redundancy/internal/supervise"
)

// ServerConfig parameterizes a replica server. The zero value selects
// the documented defaults.
type ServerConfig struct {
	// Name identifies the replica in observation events and supervision
	// trees; empty means the variant's name.
	Name string
	// CallTimeout bounds one variant execution on the server side, so a
	// wedged variant cannot pin a connection handler forever. Zero means
	// 30 seconds.
	CallTimeout time.Duration
	// Observer receives request/variant spans for served calls under the
	// executor name "replica:<name>"; nil observes nothing.
	Observer obs.Observer
}

// defaultServerCallTimeout backstops servers whose config leaves
// CallTimeout zero.
const defaultServerCallTimeout = 30 * time.Second

// Server exposes one core.Variant as a remote replica: it accepts
// framed connections from a net.Listener and answers calls by executing
// the variant (panic-contained via core.Guard) and pings by echoing a
// pong, which is what the failure detector's heartbeats measure.
//
// Connections are handled serially — one in-flight request per
// connection — matching the client's pooled one-round-trip-at-a-time
// discipline; concurrency comes from concurrent connections.
type Server[I, O any] struct {
	variant core.Variant[I, O]
	// guarded is variant under core.Guard, and executor the observed
	// executor name "replica:<name>"; both are built once, not per call.
	guarded  core.Variant[I, O]
	executor string
	codec    *rpcCodec[I, O]
	ln       net.Listener
	cfg      ServerConfig
	// traced caches obs.WantsTrace(cfg.Observer): server-side spans join
	// the wire trace only when an attached observer records traces.
	traced bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	cancel context.CancelFunc
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps variant as a replica served from ln.
func NewServer[I, O any](variant core.Variant[I, O], ln net.Listener, cfg ServerConfig) *Server[I, O] {
	if cfg.Name == "" {
		cfg.Name = variant.Name()
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = defaultServerCallTimeout
	}
	return &Server[I, O]{
		variant:  variant,
		guarded:  core.Guard(variant),
		executor: "replica:" + cfg.Name,
		codec:    newRPCCodec[I, O](),
		ln:       ln,
		cfg:      cfg,
		traced:   obs.WantsTrace(cfg.Observer),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Name returns the replica's name.
func (s *Server[I, O]) Name() string { return s.cfg.Name }

// Addr returns the listener's address.
func (s *Server[I, O]) Addr() net.Addr { return s.ln.Addr() }

// Serve runs the accept loop until the context is canceled or the
// server is closed, then waits for all connection handlers to drain.
// A clean shutdown returns nil; an unexpected accept error is returned
// as the failure (the supervision story: a supervisor restarts the
// accept loop via AsChild).
func (s *Server[I, O]) Serve(ctx context.Context) error {
	// In-flight variant executions run under this context so shutdown can
	// cancel them; otherwise Close would block on CallTimeout for every
	// wedged call.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.mu.Lock()
	s.cancel = cancel
	s.mu.Unlock()
	stop := context.AfterFunc(ctx, s.shutdown)
	defer stop()
	var failure error
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.isClosed() && !errors.Is(err, net.ErrClosed) {
				failure = err
				s.shutdown()
			}
			break
		}
		if !s.track(conn) {
			conn.Close()
			break
		}
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(ctx, conn)
		}()
	}
	s.wg.Wait()
	if failure != nil {
		return failure
	}
	return nil
}

// Close shuts the server down — listener and all live connections — and
// waits for the handlers to finish. Idempotent.
func (s *Server[I, O]) Close() error {
	s.shutdown()
	s.wg.Wait()
	return nil
}

// AsChild adapts the server into a supervise.ChildSpec so the accept
// loop runs under a supervision tree: a crashed accept loop is a child
// failure the supervisor restarts (the listener itself survives — only
// the loop is re-entered).
func (s *Server[I, O]) AsChild() supervise.ChildSpec {
	return supervise.ChildSpec{
		Name:    "replica-" + s.cfg.Name,
		Restart: supervise.Transient,
		Run:     s.Serve,
	}
}

// shutdown closes the listener and every live connection without
// waiting for handlers; Serve and Close wait.
func (s *Server[I, O]) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	cancel := s.cancel
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	if cancel != nil {
		cancel()
	}
}

// isClosed reports whether shutdown has run.
func (s *Server[I, O]) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a live connection and reserves a slot in the handler
// wait group; false means the server is closed. The wg.Add happens under
// the same lock that shutdown uses to set closed, so no Add can race a
// Wait that follows shutdown.
func (s *Server[I, O]) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return true
}

// untrack removes and closes a finished connection.
func (s *Server[I, O]) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// handle serves one connection: framed envelopes in, framed envelopes
// out, until the peer hangs up or the stream corrupts. The connection
// reuses one read buffer and one write buffer for its whole life; a
// request's payload is decoded before the next read overwrites it.
func (s *Server[I, O]) handle(ctx context.Context, conn net.Conn) {
	var rbuf, wbuf []byte
	for {
		payload, err := readFrame(conn, rbuf)
		if err != nil {
			return // EOF, closed, or corrupt stream: abandon the connection
		}
		rbuf = payload
		env, err := decodeEnvelope(payload)
		if err != nil {
			return
		}
		wbuf = newFrame(wbuf)
		switch env.Kind {
		case kindPing:
			wbuf = appendEnvelope(wbuf, &envelope{ID: env.ID, Kind: kindPong})
		case kindCall:
			wbuf = s.call(ctx, &env, wbuf)
		default:
			return // protocol violation
		}
		if err := writeFrame(conn, wbuf); err != nil {
			return
		}
	}
}

// call executes the variant for one request envelope and appends the
// reply envelope to frame, a frame holding only its header. Failures —
// decode errors, variant errors, contained panics — travel back as the
// error string of the reply; the server connection survives them.
func (s *Server[I, O]) call(ctx context.Context, env *envelope, frame []byte) []byte {
	reply := envelope{ID: env.ID, Kind: kindReply}
	value, err := s.execute(ctx, env)
	if err == nil {
		var out []byte
		if out, err = s.codec.out.append(appendEnvelope(frame, &reply), value); err == nil {
			return out
		}
	}
	reply.Err = err.Error()
	return appendEnvelope(frame, &reply)
}

// execute decodes the call's input and runs the guarded variant on it.
//
// With an observer attached each served call is one observed request
// under "replica:<name>" — request span, variant span, adjudication —
// and when the observer records traces the request span continues the
// trace carried by the envelope (its parent is the client attempt span
// that sent the call), so the per-process trace exports assemble into
// one causal tree.
func (s *Server[I, O]) execute(ctx context.Context, env *envelope) (O, error) {
	input, err := s.codec.in.decode(env.Payload)
	if err != nil {
		var zero O
		return zero, err
	}
	callCtx, cancel := context.WithTimeout(ctx, s.cfg.CallTimeout)
	defer cancel()
	executor := s.executor
	o := s.cfg.Observer
	var req uint64
	if o != nil {
		req = obs.NextRequestID()
		o.RequestStart(executor, req)
		if s.traced {
			stc := obs.ContinueTrace(env.TraceID, env.SpanID)
			callCtx = obs.WithTraceContext(callCtx, stc)
			obs.EmitRequestTraced(o, executor, req, stc)
		}
		o.VariantStart(executor, s.variant.Name(), req)
	}
	start := time.Now()
	value, err := s.guarded.Execute(callCtx, input)
	if o != nil {
		latency := time.Since(start)
		o.VariantEnd(executor, s.variant.Name(), req, latency, err)
		o.Adjudicated(executor, req, err == nil, err != nil)
		outcome := obs.OutcomeSuccess
		if err != nil {
			outcome = obs.OutcomeFailed
		}
		o.RequestEnd(executor, req, latency, outcome)
	}
	return value, err
}
