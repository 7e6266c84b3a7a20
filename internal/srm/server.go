package srm

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fbcache/internal/bundle"
	"fbcache/internal/obs/span"
)

// The wire protocol is newline-delimited JSON over TCP. Each request is one
// object; each response is one object. Operations:
//
//	{"op":"addfile","name":"evt-energy","size":1048576}
//	{"op":"stage","files":["evt-energy","evt-momentum"]}   -> {"ok":true,"token":"t1","hit":false,...}
//	{"op":"release","token":"t1"}
//	{"op":"stats"}
//
// Tokens are per-connection; dropping the connection releases all bundles it
// still holds (lease semantics), so a crashed client cannot pin the cache
// forever.

// Request is one protocol request.
type Request struct {
	Op    string   `json:"op"`
	Name  string   `json:"name,omitempty"`
	Size  int64    `json:"size,omitempty"`
	Files []string `json:"files,omitempty"`
	Token string   `json:"token,omitempty"`

	// Req continues a request labeled upstream (zero: the server assigns a
	// fresh ID); Span is the sender's span ID, which becomes the parent of
	// the server's root span. Both are span-telemetry propagation and are
	// ignored by servers without a recorder. A span ID is only meaningful
	// to the recorder that assigned it, so the cross-process parent link is
	// a best-effort join key for offline analysis.
	Req  uint64 `json:"req,omitempty"`
	Span uint64 `json:"span,omitempty"`
}

// Response is one protocol response.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Token string `json:"token,omitempty"`

	Hit         bool        `json:"hit,omitempty"`
	BytesLoaded bundle.Size `json:"bytes_loaded,omitempty"`

	Stats *Snapshot `json:"stats,omitempty"`

	// Req echoes the server-assigned request ID so the client can adopt it
	// (span.Active.AdoptRequest) and offline analysis can join the client's
	// RPC span with the server's request tree. Zero when spans are off.
	Req uint64 `json:"req,omitempty"`
}

// Server exposes an SRM over TCP.
type Server struct {
	srm *SRM
	ln  net.Listener

	mu      sync.Mutex
	closed  bool              //fbvet:guardedby mu
	conns   map[net.Conn]bool //fbvet:guardedby mu
	closers []io.Closer       //fbvet:guardedby mu — see CloseOnShutdown
	flushed bool              //fbvet:guardedby mu
	wg      sync.WaitGroup    // one count per live connection handler; internally synchronized
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") and returns once the
// listener is bound; connections are handled in background goroutines.
func Serve(s *SRM, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("srm: listen: %w", err)
	}
	srv := &Server{srm: s, ln: ln, conns: make(map[net.Conn]bool)}
	go srv.acceptLoop()
	return srv, nil
}

// Addr reports the bound address.
func (srv *Server) Addr() string { return srv.ln.Addr().String() }

// CloseOnShutdown registers c to be closed when the server stops — after
// the drain in Shutdown, or immediately in Close. Use it for telemetry
// sinks whose buffers must flush before the process exits: the span flight
// recorder (span.Recorder.Close flushes its JSONL dump) and any standalone
// trace sinks. Closers run once, in registration order; a registration
// after shutdown closes c immediately.
func (srv *Server) CloseOnShutdown(c io.Closer) {
	srv.mu.Lock()
	late := srv.flushed
	if !late {
		srv.closers = append(srv.closers, c)
	}
	srv.mu.Unlock()
	if late {
		_ = c.Close() // server already stopped; flush now, nobody to report to
	}
}

// closeClosers runs the registered shutdown closers exactly once, outside
// srv.mu (a closer may flush through locks of its own). The first error
// wins.
func (srv *Server) closeClosers() error {
	srv.mu.Lock()
	var toClose []io.Closer
	if !srv.flushed {
		srv.flushed = true
		toClose = srv.closers
	}
	srv.mu.Unlock()
	var first error
	for _, c := range toClose {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the listener and closes all connections immediately. For a
// graceful stop that lets in-flight clients finish, use Shutdown.
func (srv *Server) Close() error {
	srv.mu.Lock()
	srv.closed = true
	for c := range srv.conns {
		_ = c.Close() // per-conn close errors don't outrank the listener's
	}
	srv.mu.Unlock()
	err := srv.ln.Close()
	// No drain: flush immediately. A handler racing this may still emit —
	// closed telemetry sinks drop such late events safely (the recorder
	// nils its dump on Close), they are not worth blocking a hard stop.
	if ferr := srv.closeClosers(); err == nil {
		err = ferr
	}
	return err
}

// Shutdown stops the server gracefully: the listener closes first (no new
// connections), then in-flight connections get up to drain to finish their
// requests and disconnect on their own; stragglers are force-closed when the
// deadline passes. Dropping a connection releases its leases either way, so
// no bundle stays pinned past Shutdown. Safe to call once.
func (srv *Server) Shutdown(drain time.Duration) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.mu.Unlock()

	err := srv.ln.Close() // stop accepting; acceptLoop exits
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain):
	}

	srv.mu.Lock()
	srv.closed = true
	for c := range srv.conns {
		_ = c.Close() // drain deadline passed; cut the stragglers loose
	}
	srv.mu.Unlock()
	srv.wg.Wait() // handlers release their leases on the way out
	if ferr := srv.closeClosers(); err == nil {
		err = ferr
	}
	return err
}

func (srv *Server) acceptLoop() {
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			_ = conn.Close() // racing with Close; nothing to report the error to
			return
		}
		srv.conns[conn] = true
		srv.wg.Add(1)
		srv.mu.Unlock()
		go srv.handle(conn)
	}
}

func (srv *Server) handle(conn net.Conn) {
	defer func() {
		srv.mu.Lock()
		delete(srv.conns, conn)
		srv.mu.Unlock()
		_ = conn.Close() // handler teardown; the protocol reply already went out
		srv.wg.Done()
	}()

	leases := make(map[string]Release)
	nextToken := 0
	defer func() {
		for _, rel := range leases {
			rel()
		}
	}()

	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	rec := srv.srm.Spans()
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		// Every wire request gets a root span: the wire context (if the
		// client sent one) parents it; the response echoes the request ID
		// so the client can adopt it. All free when no recorder is set.
		root := rec.StartRequest(
			span.Context{Req: span.RequestID(req.Req), Parent: span.SpanID(req.Span)},
			serverOp(req.Op))
		resp, ec := srv.dispatch(&req, leases, &nextToken, &root)
		resp.Req = uint64(root.Req())
		root.Finish(ec)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// serverOp maps a wire op to its server-side span operation. Unknown ops
// trace as OpNone, which the recorder accepts but never exports.
func serverOp(op string) span.Op {
	switch op {
	case "stage":
		return span.OpStage
	case "release":
		return span.OpRelease
	case "addfile":
		return span.OpAddFile
	case "stats":
		return span.OpStats
	}
	return span.OpNone
}

// errCode classifies a serving-path error for span accounting.
func errCode(err error) span.ErrCode {
	switch {
	case err == nil:
		return span.ErrNone
	case errors.Is(err, ErrTooLarge):
		return span.ErrTooLarge
	case errors.Is(err, ErrClosed):
		return span.ErrClosed
	}
	return span.ErrOther
}

// dispatch serves one request under root, the request's span; the returned
// ErrCode is the request's classification for the flight recorder (the
// caller finishes root with it, after stamping the response).
func (srv *Server) dispatch(req *Request, leases map[string]Release, nextToken *int, root *span.Active) (Response, span.ErrCode) {
	switch req.Op {
	case "addfile":
		if req.Name == "" {
			return Response{Error: "addfile: empty name"}, span.ErrOther
		}
		if _, err := srv.srm.AddFile(req.Name, bundle.Size(req.Size)); err != nil {
			return Response{Error: err.Error()}, errCode(err)
		}
		return Response{OK: true}, span.ErrNone

	case "stage":
		if len(req.Files) == 0 {
			return Response{Error: "stage: no files"}, span.ErrOther
		}
		root.SetFiles(len(req.Files))
		rel, res, err := srv.srm.StageNamesCtx(root.Context(), req.Files)
		root.SetBytes(int64(res.BytesLoaded))
		root.SetHit(res.Hit)
		if err != nil {
			return Response{Error: err.Error()}, errCode(err)
		}
		*nextToken++
		token := fmt.Sprintf("t%d", *nextToken)
		leases[token] = rel
		return Response{OK: true, Token: token, Hit: res.Hit, BytesLoaded: res.BytesLoaded}, span.ErrNone

	case "release":
		rel, ok := leases[req.Token]
		if !ok {
			return Response{Error: fmt.Sprintf("release: unknown token %q", req.Token)}, span.ErrOther
		}
		delete(leases, req.Token)
		rel()
		return Response{OK: true}, span.ErrNone

	case "stats":
		st := srv.srm.Stats()
		return Response{OK: true, Stats: &st}, span.ErrNone

	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}, span.ErrOther
	}
}

// Client is a minimal protocol client.
type Client struct {
	conn net.Conn // Close may use conn concurrently with a round-trip
	// rec records client-observed RPC spans; nil = off. Immutable after
	// WithSpans, which must precede concurrent use (like srm.WithSpans).
	rec *span.Recorder
	mu  sync.Mutex
	dec *json.Decoder //fbvet:guardedby mu
	enc *json.Encoder //fbvet:guardedby mu
}

// WithSpans attaches a flight recorder to the client: every round trip
// becomes an rpc.* request span, carrying the wire context so the server's
// tree parents under it. Call before sharing the client across goroutines.
func (c *Client) WithSpans(rec *span.Recorder) *Client {
	c.rec = rec
	return c
}

// Dial connects to an SRM server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("srm: dial: %w", err)
	}
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}, nil
}

// Close drops the connection, releasing all leases held through it.
func (c *Client) Close() error { return c.conn.Close() }

// rpcOp maps a wire op to its client-side span operation.
func rpcOp(op string) span.Op {
	switch op {
	case "stage":
		return span.OpRPCStage
	case "release":
		return span.OpRPCRelease
	case "addfile":
		return span.OpRPCAddFile
	case "stats":
		return span.OpRPCStats
	}
	return span.OpNone
}

func (c *Client) roundTrip(req Request) (Response, error) {
	// The RPC span brackets the whole round trip (encode, server, decode).
	// Its span ID rides the wire so the server parents under it; the
	// response's request ID is adopted back, joining both sides' trees.
	rpc := c.rec.StartRequest(span.Context{}, rpcOp(req.Op))
	if rpc.OK() {
		req.Span = uint64(rpc.ID())
	}
	resp, err := c.doRoundTrip(req)
	if resp.Req != 0 {
		rpc.AdoptRequest(span.RequestID(resp.Req))
	}
	rpc.SetHit(resp.Hit)
	rpc.SetBytes(int64(resp.BytesLoaded))
	if err != nil {
		rpc.Finish(span.ErrOther)
	} else {
		rpc.Finish(span.ErrNone)
	}
	return resp, err
}

func (c *Client) doRoundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("srm: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("srm: recv: %w", err)
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("srm: server: %s", resp.Error)
	}
	return resp, nil
}

// AddFile registers a file with the server's catalog.
func (c *Client) AddFile(name string, size bundle.Size) error {
	_, err := c.roundTrip(Request{Op: "addfile", Name: name, Size: int64(size)})
	return err
}

// Stage stages a bundle by file names; the returned token must be released.
func (c *Client) Stage(files ...string) (token string, hit bool, loaded bundle.Size, err error) {
	resp, err := c.roundTrip(Request{Op: "stage", Files: files})
	if err != nil {
		return "", false, 0, err
	}
	return resp.Token, resp.Hit, resp.BytesLoaded, nil
}

// Release releases a staged bundle.
func (c *Client) Release(token string) error {
	_, err := c.roundTrip(Request{Op: "release", Token: token})
	return err
}

// Stats fetches a server snapshot.
func (c *Client) Stats() (Snapshot, error) {
	resp, err := c.roundTrip(Request{Op: "stats"})
	if err != nil {
		return Snapshot{}, err
	}
	if resp.Stats == nil {
		return Snapshot{}, fmt.Errorf("srm: stats: empty response")
	}
	return *resp.Stats, nil
}
