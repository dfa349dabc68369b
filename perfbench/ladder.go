package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"shbf"
	"shbf/internal/hashing"
	"shbf/internal/server"
	"shbf/internal/wire"
)

// The layer ladder replays one request stream, the workload's first
// connection's, down successively fuller stacks. Each row minus the row
// before it is that layer's cost per key.
var ladderRows = []string{"core", "sharded", "shbp_inproc", "shbp_loopback", "http_inproc", "http_loopback"}

// ladderKeys is the key volume each row replays.
const ladderKeys = 1 << 17

func ladderRequests(batch int) int { return max(512, ladderKeys/batch) }

// doer answers one request and reports model violations and the time
// spent in the layer under test.
type doer func(r *request) (elapsed time.Duration, violations int, err error)

// timed makes a doer of a call whose whole duration is the row's cost.
func timed(f func(r *request) (int, error)) doer {
	return func(r *request) (time.Duration, int, error) {
		start := time.Now()
		v, err := f(r)
		return time.Since(start), v, err
	}
}

// rowResult is one ladder row: ns per key per op.
type rowResult struct {
	nsPerKey   [numOps]float64
	keys       [numOps]int64
	violations int
}

// replay runs n requests of a fresh copy of the workload's stream
// through do. Writes use row-private indices so rows never re-insert
// each other's keys.
func (b *bench) replay(row int, n int, do doer) (rowResult, error) {
	s := newStream(b.w, b.seed, 0, b.zt)
	for k := range s.next {
		s.next[k] = uint32(row)<<24 | uint32(k)<<22
		s.acked[k], s.base[k] = s.next[k], s.next[k]
	}
	s.space = func(int) uint32 { return spLadder }
	var res rowResult
	var spent [numOps]time.Duration
	for i := 0; i < n; i++ {
		o := s.pickOp()
		r := s.nextRequest(o)
		start := time.Now()
		d, v, err := do(r)
		if err != nil {
			return res, fmt.Errorf("%s %s: %w", ladderRows[row], opNames[o], err)
		}
		if b.tr.tracing() {
			b.tr.add("ladder."+ladderRows[row]+"."+opNames[o], start, start.Add(d), 0, uint64(i), -1)
		}
		if o.write() {
			s.ack(r, true)
		}
		res.violations += v
		spent[o] += d
		res.keys[o] += int64(r.n)
	}
	for o := range res.nsPerKey {
		if res.keys[o] > 0 {
			res.nsPerKey[o] = float64(spent[o].Nanoseconds()) / float64(res.keys[o])
		}
	}
	return res, nil
}

// localFilters is the filter trio built in-process.
type localFilters struct {
	mem   shbf.Set
	assoc interface {
		shbf.Associator
		InsertS1([]byte) error
		InsertS2([]byte) error
	}
	mult interface {
		shbf.Counter
		AddAll([][]byte) error
	}
}

func newLocal(mem, assoc, mult shbf.Spec) (*localFilters, error) {
	var l localFilters
	var err error
	f, err := shbf.New(mem)
	if err != nil {
		return nil, err
	}
	var ok bool
	if l.mem, ok = f.(shbf.Set); !ok {
		return nil, fmt.Errorf("%s is not a set", mem.Kind)
	}
	if f, err = shbf.New(assoc); err != nil {
		return nil, err
	}
	if l.assoc, ok = f.(interface {
		shbf.Associator
		InsertS1([]byte) error
		InsertS2([]byte) error
	}); !ok {
		return nil, fmt.Errorf("%s is not an updatable associator", assoc.Kind)
	}
	if f, err = shbf.New(mult); err != nil {
		return nil, err
	}
	if l.mult, ok = f.(interface {
		shbf.Counter
		AddAll([][]byte) error
	}); !ok {
		return nil, fmt.Errorf("%s is not an updatable counter", mult.Kind)
	}
	return &l, nil
}

// preloadLocal inserts the workload's preload into l in-process.
func (b *bench) preloadLocal(l *localFilters) error {
	buf := newKeyBuf(preloadBatch)
	for i := 0; i < b.w.memN; i += preloadBatch {
		n := min(b.w.memN-i, preloadBatch)
		for j := 0; j < n; j++ {
			putKey(buf.keys[j], b.seed, spMember, uint32(i+j))
		}
		if err := l.mem.AddAll(buf.keys[:n]); err != nil {
			return err
		}
	}
	key := make([]byte, keyLen)
	for i := uint32(0); i < uint32(b.w.assocN); i++ {
		putKey(key, b.seed, spAssoc, i)
		r := assocRegion(i)
		if r != shbf.RegionS2Only {
			if err := l.assoc.InsertS1(key); err != nil {
				return err
			}
		}
		if r != shbf.RegionS1Only {
			if err := l.assoc.InsertS2(key); err != nil {
				return err
			}
		}
	}
	n := 0
	for i := uint32(0); i < uint32(b.w.multN); i++ {
		for range b.zt.multCount(b.seed, i) {
			putKey(buf.keys[n], b.seed, spMult, i)
			if n++; n == preloadBatch {
				if err := l.mult.AddAll(buf.keys[:n]); err != nil {
					return err
				}
				n = 0
			}
		}
	}
	return l.mult.AddAll(buf.keys[:n])
}

// do answers r from the local trio, checking reads against the model.
func (l *localFilters) do(r *request) (int, error) {
	keys := r.keys.keys[:r.n]
	switch r.op {
	case opContains:
		v, _ := checkContains(r.member[:r.n], l.mem.ContainsAll(nil, keys))
		return v, nil
	case opClassify:
		return checkClassify(r.region[:r.n], l.assoc.QueryAll(nil, keys)), nil
	case opCount:
		return checkCounts(r.count[:r.n], l.mult.CountAll(nil, keys)), nil
	case opAdd:
		return 0, l.mem.AddAll(keys)
	case opAssocAdd:
		insert := l.assoc.InsertS1
		if r.set == 2 {
			insert = l.assoc.InsertS2
		}
		for _, k := range keys {
			if err := insert(k); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	return 0, l.mult.AddAll(keys)
}

// unsharded maps a sharded spec to the core kind each shard holds.
func unsharded(s shbf.Spec) shbf.Spec {
	switch s.Kind {
	case shbf.KindShardedMembership:
		s.Kind = shbf.KindMembership
	case shbf.KindShardedAssociation:
		s.Kind = shbf.KindCountingAssociation
	case shbf.KindShardedMultiplicity:
		s.Kind = shbf.KindCountingMultiplicity
	}
	s.Shards = 0
	return s
}

// pipeListener serves net.Pipe connections: ShBP with no socket.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		c.Close()
		s.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeClient speaks ShBP frames over a pipe with the wire codec.
type pipeClient struct {
	conn     net.Conn
	out, in  []byte
	resp     wire.Response
	reqBytes int64
	resBytes int64
}

var shbpOps = [numOps]byte{
	opContains: wire.OpMembershipContains, opAdd: wire.OpMembershipAdd,
	opClassify: wire.OpAssociationQuery, opAssocAdd: wire.OpAssociationAdd,
	opCount: wire.OpMultiplicityCount, opInsert: wire.OpMultiplicityAdd,
}

func (p *pipeClient) do(ns string) func(r *request) (int, error) {
	return func(r *request) (int, error) {
		req := wire.Request{Op: shbpOps[r.op], Namespace: ns, KeyWidth: keyLen, Keys: r.keys.keys[:r.n]}
		if r.op == opAssocAdd {
			req.Set = byte(r.set)
		}
		var err error
		if p.out, err = wire.AppendRequest(p.out[:0], &req); err != nil {
			return 0, err
		}
		if _, err := p.conn.Write(p.out); err != nil {
			return 0, err
		}
		p.reqBytes += int64(len(p.out))
		if p.in, err = wire.ReadFrame(p.conn, p.in); err != nil {
			return 0, err
		}
		p.resBytes += int64(len(p.in)) + 4 // payload plus its length prefix
		if err := wire.DecodeResponse(&p.resp, p.in); err != nil {
			return 0, err
		}
		if p.resp.Status != wire.StatusOK {
			return 0, fmt.Errorf("status %s: %s", wire.StatusName(p.resp.Status), p.resp.Msg)
		}
		switch r.op {
		case opContains:
			v, _ := checkContains(r.member[:r.n], p.resp.Bools)
			return v, nil
		case opClassify:
			got := make([]shbf.Region, len(p.resp.Regions))
			for i, g := range p.resp.Regions {
				got[i] = shbf.Region(g)
			}
			return checkClassify(r.region[:r.n], got), nil
		case opCount:
			return checkCounts(r.count[:r.n], p.resp.Counts), nil
		}
		return 0, nil
	}
}

// httpInproc calls the daemon's handler with a recorder: the HTTP
// layer's routing, JSON codec and handlers with no socket. Bodies are
// built before the clock starts and parsed after it stops.
type httpInproc struct {
	h        http.Handler
	ns       string
	reqBytes int64
	resBytes int64
}

var httpPaths = [numOps]string{
	opContains: "/membership/contains", opAdd: "/membership/add",
	opClassify: "/association/classify", opAssocAdd: "/association/add",
	opCount: "/multiplicity/count", opInsert: "/multiplicity/add",
}

func (hi *httpInproc) do(r *request) (time.Duration, int, error) {
	keys := make([]string, r.n)
	for i, k := range r.keys.keys[:r.n] {
		keys[i] = base64.StdEncoding.EncodeToString(k)
	}
	var payload any
	switch r.op {
	case opAssocAdd:
		payload = map[string]any{"set": r.set, "keys": keys, "encoding": "base64"}
	case opInsert:
		items := make([]map[string]any, r.n)
		for i, k := range keys {
			items[i] = map[string]any{"key": k, "count": 1}
		}
		payload = map[string]any{"items": items, "encoding": "base64"}
	default:
		payload = map[string]any{"keys": keys, "encoding": "base64"}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v2/namespaces/"+hi.ns+httpPaths[r.op], bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	hi.h.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	hi.reqBytes += int64(len(body))
	hi.resBytes += int64(rec.Body.Len())
	if rec.Code != http.StatusOK {
		return elapsed, 0, fmt.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Results json.RawMessage `json:"results"`
		Counts  []int           `json:"counts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return elapsed, 0, err
	}
	switch r.op {
	case opContains:
		var got []bool
		if err := json.Unmarshal(out.Results, &got); err != nil {
			return elapsed, 0, err
		}
		v, _ := checkContains(r.member[:r.n], got)
		return elapsed, v, nil
	case opClassify:
		var res []struct {
			Mask uint8 `json:"mask"`
		}
		if err := json.Unmarshal(out.Results, &res); err != nil {
			return elapsed, 0, err
		}
		got := make([]shbf.Region, len(res))
		for i, m := range res {
			got[i] = shbf.Region(m.Mask)
		}
		return elapsed, checkClassify(r.region[:r.n], got), nil
	case opCount:
		return elapsed, checkCounts(r.count[:r.n], out.Counts), nil
	}
	return elapsed, 0, nil
}

// ladderResult is the whole ladder plus the layer figures measured on
// its rows.
type ladderResult struct {
	rows            []rowResult
	digestNsPerKey  float64
	containsUnderWr float64
	windowContains  float64
	windowRotate    samples
	wireReqPerKey   float64
	wireRespPerKey  float64
	httpReqPerKey   float64
	httpRespPerKey  float64
	handler         samples // HTTP handler time on the loopback row
	violations      int
}

// runLadder builds the in-process rows, then replays the stream down
// every row.
func (b *bench) runLadder() (*ladderResult, error) {
	cfg := b.w.cfg
	cfg.WindowGenerations = 0
	memS, assocS, multS := cfg.Specs()
	n := ladderRequests(b.w.batch)
	res := &ladderResult{}

	var core, sharded *localFilters
	err := parallel(2, func(i int) error {
		var err error
		if i == 0 {
			if core, err = newLocal(unsharded(memS), unsharded(assocS), unsharded(multS)); err == nil {
				err = b.preloadLocal(core)
			}
			return err
		}
		if sharded, err = newLocal(memS, assocS, multS); err == nil {
			err = b.preloadLocal(sharded)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ladder preload: %w", err)
	}

	add := func(row int, do doer) error {
		r, err := b.replay(row, n, do)
		if err != nil {
			return err
		}
		res.rows = append(res.rows, r)
		res.violations += r.violations
		return nil
	}
	if err := add(0, timed(core.do)); err != nil {
		return nil, err
	}
	core = nil
	if err := add(1, timed(sharded.do)); err != nil {
		return nil, err
	}
	if res.containsUnderWr, err = b.containsUnderWrites(sharded, n); err != nil {
		return nil, err
	}
	sharded = nil

	// In-memory ShBP: the workload's own server on a second listener.
	pl := newPipeListener()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.d.srv.ServeShBP(ctx, pl)
	}()
	conn, err := pl.dial()
	if err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	pc := &pipeClient{conn: conn}
	err = add(2, timed(pc.do(server.DefaultNamespace)))
	conn.Close()
	cancel()
	pl.Close()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	keys := float64(sumKeys(res.rows[2]))
	res.wireReqPerKey, res.wireRespPerKey = float64(pc.reqBytes)/keys, float64(pc.resBytes)/keys

	cl, err := b.d.dial("shbp")
	if err != nil {
		return nil, err
	}
	h := newHandles(cl, server.DefaultNamespace)
	err = add(3, timed(func(r *request) (int, error) { o := h.do(r); return o.violations, o.err }))
	cl.Close()
	if err != nil {
		return nil, err
	}

	hi := &httpInproc{h: b.d.srv.Handler(), ns: server.DefaultNamespace}
	if err := add(4, hi.do); err != nil {
		return nil, err
	}
	keys = float64(sumKeys(res.rows[4]))
	res.httpReqPerKey, res.httpRespPerKey = float64(hi.reqBytes)/keys, float64(hi.resBytes)/keys

	if b.tr != nil {
		b.tr.mu.Lock()
		mark := len(b.tr.handler)
		b.tr.mu.Unlock()
		defer func() {
			b.tr.mu.Lock()
			res.handler = append(samples(nil), b.tr.handler[mark:]...)
			b.tr.mu.Unlock()
		}()
	}
	hc, err := b.d.dial("http")
	if err != nil {
		return nil, err
	}
	h = newHandles(hc, server.DefaultNamespace)
	err = add(5, timed(func(r *request) (int, error) { o := h.do(r); return o.violations, o.err }))
	hc.Close()
	if err != nil {
		return nil, err
	}

	res.digestNsPerKey = b.digestCost(n)
	if res.windowContains, res.windowRotate, err = b.windowRow(n); err != nil {
		return nil, err
	}
	return res, nil
}

func sumKeys(r rowResult) int64 {
	var n int64
	for _, k := range r.keys {
		n += k
	}
	return max(1, n)
}

// containsUnderWrites replays the stream's contains requests on the
// sharded trio while another goroutine adds fresh keys to it.
func (b *bench) containsUnderWrites(l *localFilters, n int) (float64, error) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := newKeyBuf(preloadBatch)
		for idx := uint32(7) << 24; ; idx += preloadBatch {
			select {
			case <-stop:
				return
			default:
			}
			for j := range buf.keys {
				putKey(buf.keys[j], b.seed, spLadder, idx+uint32(j))
			}
			l.mem.AddAll(buf.keys)
		}
	}()
	s := newStream(b.w, b.seed, 0, b.zt)
	var elapsed time.Duration
	var keys int
	for i := 0; i < n; i++ {
		r := s.nextRequest(opContains)
		start := time.Now()
		l.mem.ContainsAll(nil, r.keys.keys[:r.n])
		elapsed += time.Since(start)
		keys += r.n
	}
	close(stop)
	wg.Wait()
	return float64(elapsed.Nanoseconds()) / float64(keys), nil
}

// digestCost times the one-pass key digest every filter op starts with.
func (b *bench) digestCost(n int) float64 {
	s := newStream(b.w, b.seed, 0, b.zt)
	var elapsed time.Duration
	var keys int
	var sink uint64
	for i := 0; i < n; i++ {
		r := s.nextRequest(opContains)
		start := time.Now()
		for _, k := range r.keys.keys[:r.n] {
			sink += hashing.DigestOf(b.w.cfg.Seed, k).Lo
		}
		elapsed += time.Since(start)
		keys += r.n
	}
	digestSink = sink
	return float64(elapsed.Nanoseconds()) / float64(keys)
}

var digestSink uint64

// windowGenerations is the window row's generation count.
const windowGenerations = 4

// windowRow replays the contains requests on a sliding-window sharded
// membership filter of default geometry (4 generations) preloaded with
// the workload's members, then times rotations.
func (b *bench) windowRow(n int) (float64, samples, error) {
	cfg := b.w.cfg
	cfg.MembershipBits = scaled(server.DefaultConfig().MembershipBits, b.scale)
	cfg.WindowGenerations = windowGenerations
	memS, _, _ := cfg.Specs()
	f, err := shbf.New(memS)
	if err != nil {
		return 0, nil, err
	}
	set := f.(shbf.Set)
	buf := newKeyBuf(preloadBatch)
	memN := min(b.w.memN, designPoint(cfg.MembershipBits, cfg.MembershipK))
	for i := 0; i < memN; i += preloadBatch {
		m := min(memN-i, preloadBatch)
		for j := 0; j < m; j++ {
			putKey(buf.keys[j], b.seed, spMember, uint32(i+j))
		}
		if err := set.AddAll(buf.keys[:m]); err != nil {
			return 0, nil, err
		}
	}
	s := newStream(b.w, b.seed, 0, b.zt)
	var elapsed time.Duration
	var keys int
	for i := 0; i < n; i++ {
		r := s.nextRequest(opContains)
		start := time.Now()
		set.ContainsAll(nil, r.keys.keys[:r.n])
		elapsed += time.Since(start)
		keys += r.n
	}
	var rot samples
	w := f.(shbf.Windowed)
	for range windowGenerations {
		start := time.Now()
		if err := w.Rotate(); err != nil {
			return 0, nil, err
		}
		rot = append(rot, time.Since(start))
	}
	return float64(elapsed.Nanoseconds()) / float64(keys), rot, nil
}
