package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shbf/internal/ingest"
)

// span is one traced interval. Spans of one request share Req; Parent
// is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Conn   int    `json:"conn"`
}

// tracer keeps spans in memory for the traced run. A nil tracer (the
// untraced run) installs no wrappers at all; a non-nil one installs
// them and records only while on is set, so one process can measure
// the same traffic with and without span recording.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	conns   []*tapConn
	handler samples // wrapped HTTP handler time per data-plane request
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) tracing() bool { return tr != nil && tr.on.Load() }

func (tr *tracer) ns(t time.Time) int64 { return t.Sub(tr.t0).Nanoseconds() }

// add records a span.
func (tr *tracer) add(name string, start, end time.Time, parent, req uint64, conn int) {
	id := tr.nextID.Add(1)
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name, tr.ns(start), tr.ns(end), id, parent, req, conn})
	tr.mu.Unlock()
}

// wrapListener hands the server a listener whose connections time
// each ShBP request from the read that completed it to the response
// write.
func (tr *tracer) wrapListener(ln net.Listener) net.Listener {
	if tr == nil {
		return ln
	}
	return &tapListener{Listener: ln, tr: tr}
}

type tapListener struct {
	net.Listener
	tr *tracer
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.tr.mu.Lock()
	defer l.tr.mu.Unlock()
	tc := &tapConn{Conn: c, tr: l.tr, idx: len(l.tr.conns)}
	l.tr.conns = append(l.tr.conns, tc)
	return tc, nil
}

// tapConn is a server-side ShBP connection. Clients run closed loops,
// so the last read before a write completed the request it answers.
type tapConn struct {
	net.Conn
	tr  *tracer
	idx int

	mu       sync.Mutex
	lastRead time.Time
	service  samples
	spans    []span // server-side service spans, matched to client spans at dump
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.tracing() {
		now := time.Now()
		c.mu.Lock()
		c.lastRead = now
		c.mu.Unlock()
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	if c.tr.tracing() {
		now := time.Now()
		c.mu.Lock()
		if !c.lastRead.IsZero() {
			c.service = append(c.service, now.Sub(c.lastRead))
			c.spans = append(c.spans, span{Name: "server.shbp_service", Start: c.tr.ns(c.lastRead), End: c.tr.ns(now), Conn: c.idx})
			c.lastRead = time.Time{}
		}
		c.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// wrapHandler times the daemon's HTTP handler per data-plane request.
func (tr *tracer) wrapHandler(h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.tracing() || !dataPlane(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		tr.add("server.http_handler", start, end, 0, 0, -1)
		tr.mu.Lock()
		tr.handler = append(tr.handler, end.Sub(start))
		tr.mu.Unlock()
	})
}

func dataPlane(path string) bool {
	return strings.Contains(path, "/membership/") || strings.Contains(path, "/association/") ||
		strings.Contains(path, "/multiplicity/")
}

// shbuHeader is the part of a ShBU datagram the taps read: its source
// and sequence number, and for envelope fragments whether this is the
// flush's last fragment (whose processing runs the merge).
type shbuHeader struct {
	src   uint64
	seq   uint64
	final bool
	ok    bool
}

func parseShBU(p []byte) shbuHeader {
	d, err := ingest.Decode(p)
	if err != nil {
		return shbuHeader{}
	}
	final := d.Type == ingest.TypeEnvelopeFrag && d.FragIndex == d.FragCount-1
	return shbuHeader{src: d.Source, seq: d.Seq, final: final, ok: true}
}

// udpTap is the PacketConn handed to ServeShBU. The server reads one
// datagram, applies it, and reads again, so the next ReadFrom call
// marks the previous datagram as applied and ends the receiver's busy
// time on it.
type udpTap struct {
	net.PacketConn
	tr *tracer

	mu        sync.Mutex
	pending   shbuHeader
	readAt    time.Time
	onApplied func(h shbuHeader)
	reads     int64
	busy      time.Duration
	merge     samples // busy time of final envelope fragments
}

func newUDPTap(pc net.PacketConn, tr *tracer) *udpTap { return &udpTap{PacketConn: pc, tr: tr} }

func (u *udpTap) ReadFrom(p []byte) (int, net.Addr, error) {
	now := time.Now()
	u.mu.Lock()
	if u.pending.ok {
		h, readAt := u.pending, u.readAt
		u.pending.ok = false
		d := now.Sub(readAt)
		u.busy += d
		if h.final {
			u.merge = append(u.merge, d)
		}
		if f := u.onApplied; f != nil {
			f(h)
		}
		if u.tr.tracing() {
			u.tr.add("ingest.recv_apply", readAt, now, 0, h.seq, int(h.src&0xffff))
		}
	}
	u.mu.Unlock()
	n, addr, err := u.PacketConn.ReadFrom(p)
	if err == nil {
		h := parseShBU(p[:n])
		t := time.Now()
		u.mu.Lock()
		u.pending, u.readAt = h, t
		u.reads++
		u.mu.Unlock()
	}
	return n, addr, err
}

// dumpSpans writes every span as one JSON line, server-side ShBP spans
// parented to the client request span on the same connection that
// contains them.
func (tr *tracer) dumpSpans(path string) (int, error) {
	tr.mu.Lock()
	all := append([]span(nil), tr.spans...)
	conns := append([]*tapConn(nil), tr.conns...)
	tr.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		srv := append([]span(nil), c.spans...)
		c.mu.Unlock()
		matchParents(all, srv, c.idx, func(s *span, parent span) {
			s.ID, s.Parent, s.Req = tr.nextID.Add(1), parent.ID, parent.Req
		})
		all = append(all, srv...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(all), f.Close()
}

// matchParents pairs each server span on connection conn with the
// client span on the same connection whose interval contains it, and
// calls set for each pair. Both sides are ordered by start time.
func matchParents(client, server []span, conn int, set func(s *span, parent span)) {
	var mine []span
	for _, s := range client {
		if s.Conn == conn && strings.HasPrefix(s.Name, "client.") {
			mine = append(mine, s)
		}
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i].Start < mine[j].Start })
	j := 0
	for i := range server {
		for j < len(mine) && mine[j].End < server[i].End {
			j++
		}
		if j < len(mine) && mine[j].Start <= server[i].Start {
			set(&server[i], mine[j])
		}
	}
}
