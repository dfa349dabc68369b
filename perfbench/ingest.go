package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"shbf"
	"shbf/client"
	"shbf/internal/ingest"
	"shbf/internal/server"
)

// The traced run's ingest probe: one open-loop scheduler goroutine
// drives a keys-mode agent into the workload's namespace and an
// envelope-mode agent into a namespace of its own, both over loopback
// UDP, and the daemon is then checked for every key it applied.
const (
	ingestProbe = 2 * time.Second
	// ingestRate is the offered keys-mode datagram rate, each datagram
	// one flush of ingestKeysPerDatagram keys.
	ingestRate            = 1000
	ingestKeysPerDatagram = 64
	// envelopeKeysPerTick keys are folded into the envelope agent per
	// tick; it flushes its cumulative filter every envelopeFlushTicks.
	envelopeKeysPerTick = 16
	envelopeFlushTicks  = ingestRate
	// edgeNamespace receives the envelope agent's flushes. An envelope
	// carries the agent's whole filter, whose geometry must match the
	// namespace it merges into, so it gets a small namespace of its own.
	edgeNamespace = "edge"
	edgeBits      = 4 << 20
)

// sendRec is what the scheduler knew when a datagram was written.
type sendRec struct {
	first uint32 // first key index (keys mode)
	n     int    // keys in the datagram (keys mode)
	flush int    // envelope flush number, −1 in keys mode
}

// ingestRun is the state of one ingest probe.
type ingestRun struct {
	seed    uint64
	d       *deployment
	tr      *tracer
	set     *client.Set // the workload's namespace, fed by the keys agent
	edgeSet *client.Set

	keys, env   *ingest.Agent
	conns       [2]net.Conn // the agents' UDP sockets
	keysBuf     *keyBuf
	envBuf      *keyBuf
	nextKey     uint32 // next keys-mode key index
	nextEnvKey  uint32 // next envelope key index
	envFlushes  int
	ctx         sendRec  // the flush being written
	ctxSent     int      // keys of ctx already written
	flushKeysAt []uint32 // envelope keys added before each flush

	mu           sync.Mutex
	sent         map[[2]uint64]sendRec // written, not yet seen applied
	applied      [][2]uint32           // applied keys-mode datagrams: first index, keys
	appliedFlush map[int]int           // envelope flush → fragments applied
	flushFrags   map[int]int           // envelope flush → fragments sent
	sentN        int64
	sentBytes    int64
	lastEnvFull  int // highest flush with every fragment applied, −1 if none

	// Scheduler-side timings (one goroutine).
	late, flushLat, envFlush samples
	addTime                  time.Duration
	addKeys                  int64
}

// agentWriter is the io.Writer each agent sends through: every Write is
// one datagram, recorded before it leaves.
type agentWriter struct {
	r *ingestRun
	w io.Writer
}

func (a agentWriter) Write(p []byte) (int, error) {
	d, err := ingest.Decode(p)
	if err != nil {
		return 0, fmt.Errorf("agent wrote an undecodable datagram: %w", err)
	}
	rec := a.r.ctx
	if rec.flush < 0 {
		// A keys-mode flush may span datagrams: this one carries the
		// next keys of the tick's batch.
		rec.first, rec.n = a.r.ctx.first+uint32(a.r.ctxSent), len(d.Keys)
		a.r.ctxSent += len(d.Keys)
	}
	a.r.mu.Lock()
	a.r.sent[[2]uint64{d.Source, d.Seq}] = rec
	if rec.flush >= 0 {
		a.r.flushFrags[rec.flush]++
	}
	a.r.sentN++
	a.r.sentBytes += int64(len(p))
	a.r.mu.Unlock()
	return a.w.Write(p)
}

// newIngestRun prepares the agents against d. ctl creates the edge
// namespace; its handles check both namespaces afterwards.
func newIngestRun(w workload, seed uint64, d *deployment, tr *tracer, ctl handles) (*ingestRun, error) {
	r := &ingestRun{seed: seed, d: d, tr: tr, set: ctl.set,
		keysBuf: newKeyBuf(ingestKeysPerDatagram), envBuf: newKeyBuf(envelopeKeysPerTick),
		sent: map[[2]uint64]sendRec{}, appliedFlush: map[int]int{}, flushFrags: map[int]int{},
		lastEnvFull: -1,
	}
	if err := ctl.cl.CreateNamespace(client.NamespaceConfig{Name: edgeNamespace, MembershipBits: edgeBits}); err != nil {
		return nil, fmt.Errorf("create %s namespace: %w", edgeNamespace, err)
	}
	r.edgeSet = ctl.cl.Namespace(edgeNamespace).Set()
	edgeCfg := w.cfg
	edgeCfg.MembershipBits = edgeBits
	memSpec, _, _ := edgeCfg.Specs()
	local, err := shbf.New(memSpec)
	if err != nil {
		return nil, err
	}
	for i := range r.conns {
		if r.conns[i], err = net.Dial("udp", d.udpAddr); err != nil {
			r.close()
			return nil, err
		}
	}
	r.keys, err = ingest.NewAgent(agentWriter{r, r.conns[0]}, ingest.AgentConfig{
		Namespace: server.DefaultNamespace, Source: mix64(seed^0x6b657973) | 1, Mode: ingest.ModeKeys})
	if err == nil {
		r.env, err = ingest.NewAgent(agentWriter{r, r.conns[1]}, ingest.AgentConfig{
			Namespace: edgeNamespace, Source: mix64(seed^0x656e76) | 2, Mode: ingest.ModeEnvelope,
			MaxDatagram: ingest.MaxDatagram, Filter: local})
	}
	if err != nil {
		r.close()
		return nil, err
	}
	d.udp.mu.Lock()
	d.udp.onApplied = r.onApplied
	d.udp.mu.Unlock()
	return r, nil
}

// close releases the agents' sockets.
func (r *ingestRun) close() {
	for _, c := range r.conns {
		if c != nil {
			c.Close()
		}
	}
}

// onApplied runs on the server's receive goroutine after it finished
// a datagram.
func (r *ingestRun) onApplied(h shbuHeader) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := [2]uint64{h.src, h.seq}
	rec, ok := r.sent[key]
	if !ok {
		return
	}
	delete(r.sent, key)
	if rec.flush >= 0 {
		r.appliedFlush[rec.flush]++
		if r.appliedFlush[rec.flush] == r.flushFrags[rec.flush] && rec.flush > r.lastEnvFull {
			r.lastEnvFull = rec.flush
		}
		return
	}
	r.applied = append(r.applied, [2]uint32{rec.first, uint32(rec.n)})
}

// schedule drives both agents open-loop until deadline: tick i is due
// at start + i/ingestRate whether or not the previous tick's work has
// finished.
func (r *ingestRun) schedule(start, until time.Time) error {
	tick := time.Second / ingestRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * tick)
		if !due.Before(until) {
			return nil
		}
		time.Sleep(time.Until(due))
		r.late = append(r.late, time.Since(due))

		first := r.nextKey
		r.nextKey += ingestKeysPerDatagram
		for j := range r.keysBuf.keys {
			putKey(r.keysBuf.keys[j], r.seed, spIngest, first+uint32(j))
		}
		r.ctx, r.ctxSent = sendRec{first: first, flush: -1}, 0
		t0 := time.Now()
		if err := r.keys.AddAll(r.keysBuf.keys); err != nil {
			return err
		}
		t1 := time.Now()
		if err := r.keys.Flush(); err != nil {
			return err
		}
		t2 := time.Now()
		r.addTime += t1.Sub(t0)
		r.addKeys += ingestKeysPerDatagram
		r.flushLat = append(r.flushLat, t2.Sub(t1))
		if r.tr.tracing() {
			r.tr.add("ingest.keys_flush", t1, t2, 0, uint64(first), -1)
		}

		for j := range r.envBuf.keys {
			putKey(r.envBuf.keys[j], r.seed, spEnvelope, r.nextEnvKey+uint32(j))
		}
		r.nextEnvKey += envelopeKeysPerTick
		t3 := time.Now()
		if err := r.env.AddAll(r.envBuf.keys); err != nil {
			return err
		}
		r.addTime += time.Since(t3)
		r.addKeys += envelopeKeysPerTick
		if i%envelopeFlushTicks == envelopeFlushTicks-1 {
			r.ctx = sendRec{flush: r.envFlushes}
			r.flushKeysAt = append(r.flushKeysAt, r.nextEnvKey)
			r.envFlushes++
			t4 := time.Now()
			if err := r.env.Flush(); err != nil {
				return err
			}
			t5 := time.Now()
			r.envFlush = append(r.envFlush, t5.Sub(t4))
			if r.tr.tracing() {
				r.tr.add("ingest.envelope_flush", t4, t5, 0, uint64(r.envFlushes), -1)
			}
		}
	}
}

// ingestResult is a probe's account.
type ingestResult struct {
	sent       int64
	read       int64 // datagrams the server read
	unapplied  int64 // datagrams never seen applied: lost in the kernel or unreadable
	dropped    ingest.Stats
	violations int // keys of applied datagrams the daemon does not hold
	unchecked  int // 1 if envelope flushes were sent and none was applied in full
	elapsed    time.Duration
	busy       time.Duration // receiver time spent applying datagrams
}

// probe runs the scheduler for d, drains the receiver, and checks both
// namespaces against every datagram the daemon applied.
func (r *ingestRun) probe(d time.Duration) (ingestResult, error) {
	start := time.Now()
	if err := r.schedule(start, start.Add(d)); err != nil {
		return ingestResult{}, err
	}
	p := ingestResult{elapsed: time.Since(start)}
	// Drain: wait until the server has read and applied everything
	// sent, or until it is clear the rest was lost.
	for wait := time.Now().Add(time.Second); time.Now().Before(wait); time.Sleep(time.Millisecond) {
		r.mu.Lock()
		pending := len(r.sent)
		r.mu.Unlock()
		if pending == 0 {
			break
		}
	}
	p.dropped = r.d.srv.UDPStats()
	r.mu.Lock()
	p.sent, p.unapplied = r.sentN, int64(len(r.sent))
	applied := append([][2]uint32(nil), r.applied...)
	lastFull := r.lastEnvFull
	r.mu.Unlock()
	r.d.udp.mu.Lock()
	p.read, p.busy = r.d.udp.reads, r.d.udp.busy
	r.d.udp.mu.Unlock()

	// Applied keys-mode datagrams carry consecutive index ranges: check
	// each maximal run in one pass.
	sort.Slice(applied, func(i, j int) bool { return applied[i][0] < applied[j][0] })
	for i := 0; i < len(applied); {
		first, end := applied[i][0], applied[i][0]+applied[i][1]
		for i++; i < len(applied) && applied[i][0] == end; i++ {
			end += applied[i][1]
		}
		v, err := checkPresent(r.set, r.seed, spIngest, first, end)
		if err != nil {
			return p, fmt.Errorf("check %s namespace: %w", server.DefaultNamespace, err)
		}
		p.violations += v
	}
	// The envelope is cumulative: the last flush applied in full must
	// hold every key added before it.
	if lastFull < 0 {
		p.unchecked = btoi(r.envFlushes > 0)
		return p, nil
	}
	v, err := checkPresent(r.edgeSet, r.seed, spEnvelope, 0, r.flushKeysAt[lastFull])
	if err != nil {
		return p, fmt.Errorf("check %s namespace: %w", edgeNamespace, err)
	}
	p.violations += v
	return p, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkPresent asserts every key of space with index in [first, end)
// is present in set and returns the violations.
func checkPresent(set *client.Set, seed uint64, space, first, end uint32) (int, error) {
	buf := newKeyBuf(preloadBatch)
	v := 0
	for i := first; i < end; i += preloadBatch {
		m := int(min(end-i, preloadBatch))
		for j := 0; j < m; j++ {
			putKey(buf.keys[j], seed, space, i+uint32(j))
		}
		got, err := set.Check(buf.keys[:m])
		if err != nil {
			return v, err
		}
		for _, g := range got {
			if memberViolation(true, g) {
				v++
			}
		}
	}
	return v, nil
}
