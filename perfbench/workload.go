package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"shbf"
	"shbf/client"
	"shbf/internal/server"
)

// workload is one traffic mix against one daemon geometry.
type workload struct {
	name      string
	why       string
	transport string // "shbp" or "http"
	batch     int    // keys per request
	conns     int    // closed-loop connections
	cfg       server.Config
	memN      int // preloaded membership keys
	assocN    int // preloaded association keys (S1−S2, S1∩S2, S2−S1 in turn)
	multN     int // preloaded multiplicity keys, Zipf counts capped at c
}

// designPoint is the element count at which a k-hash filter of m bits
// is half full, the optimum the paper sizes for: n = m·ln2/k.
func designPoint(m, k int) int { return int(float64(m) * math.Ln2 / float64(k)) }

// workloads returns the benchmark's workloads. scale < 1 shrinks every
// geometry and preload for the self-test; the benchmark runs at 1.
func workloads(scale float64) map[string]workload {
	def := server.DefaultConfig()
	def.MembershipBits = scaled(def.MembershipBits, scale)
	def.AssociationBits = scaled(def.AssociationBits, scale)
	def.MultiplicityBits = scaled(def.MultiplicityBits, scale)
	// Membership is preloaded to its design point. Every association
	// insert and multiplicity increment costs the daemon a counter
	// update and an exact-set operation (~2 µs), and set-up runs three
	// times in every run, so association holds 2^19 keys (half its
	// design point) and multiplicity 2^16 keys (~0.6M increments). The
	// accuracy namespace holds the same keys at their design point.
	base := workload{
		transport: "shbp", conns: 2, cfg: def,
		memN:   designPoint(def.MembershipBits, def.MembershipK),
		assocN: scaled(1<<19, scale), multN: scaled(1<<16, scale),
	}

	small := base
	small.name, small.batch = "small-batch", 16
	small.why = "16-key ShBP requests on default geometry: per-request cost (client, wire codec, dispatch, socket) dominates"

	bulk := base
	bulk.name, bulk.batch = "bulk", 4096
	// 256 Mbit of membership: with the default association and
	// multiplicity arrays, ~36 MiB of query bit arrays (~51 MiB with the
	// counters), over 16× one core's 2 MiB L2, so probes miss cache. Its
	// design-point preload (23M keys) is most of this workload's set-up.
	bulk.cfg.MembershipBits = scaled(256<<20, scale)
	bulk.memN = designPoint(bulk.cfg.MembershipBits, bulk.cfg.MembershipK)
	bulk.why = "4096-key ShBP requests on filter state 16x one core's L2: hashing, cache misses and shard locking dominate"

	js := base
	js.name, js.batch, js.transport = "json", 256, "http"
	js.why = "256-key HTTP/JSON requests on default geometry: JSON codec, net/http and handlers dominate"

	return map[string]workload{small.name: small, bulk.name: bulk, js.name: js}
}

// accuracyNamespace holds the association and multiplicity preloads
// again, in bit arrays sized so that assocN and multN keys are their
// design point, where the paper measures clear-answer and correctness
// rates. It is created, preloaded and probed once per run, untimed,
// after set-up, and deleted before the measured phase.
const accuracyNamespace = "accuracy"

// designBits is the bit-array size whose design point is n keys.
func designBits(n, k int) int { return int(math.Ceil(float64(n) * float64(k) / math.Ln2)) }

func (w workload) accuracyConfig() client.NamespaceConfig {
	// Membership is probed on the workload's namespace; this one gets
	// the smallest array the daemon's sharding accepts.
	return client.NamespaceConfig{Name: accuracyNamespace, MembershipBits: 64 * w.cfg.Shards,
		AssociationBits:  designBits(w.assocN, w.cfg.AssociationK),
		MultiplicityBits: designBits(w.multN, w.cfg.MultiplicityK)}
}

func scaled(v int, scale float64) int { return max(1024, int(float64(v)*scale)) }

// Operations of the closed-loop mix.
type opKind int

const (
	opContains opKind = iota
	opAdd
	opClassify
	opAssocAdd
	opCount
	opInsert
	numOps
)

var opNames = [numOps]string{"contains", "add", "classify", "assoc_add", "count", "insert"}

// opWeights is the mix: all three query kinds, read-mostly, with one
// write op per kind. It is an assumption, not a measurement: neither
// the paper nor this repository holds a trace of a service's query mix.
// Change it only to match such a trace, since every gated figure
// depends on it.
var opWeights = [numOps]int{opContains: 40, opAdd: 2, opClassify: 27, opAssocAdd: 2, opCount: 27, opInsert: 2}

func (o opKind) write() bool { return o == opAdd || o == opAssocAdd || o == opInsert }

// writeKind maps an op to the write space it reads from or writes to.
func (o opKind) writeKind() int {
	switch o {
	case opContains, opAdd:
		return kindMember
	case opClassify, opAssocAdd:
		return kindAssoc
	}
	return kindMult
}

// request is one generated request: its op, keys and, for reads, the
// model's truth per key.
type request struct {
	op     opKind
	set    int // association write set
	keys   *keyBuf
	n      int
	member []bool        // contains truth
	region []shbf.Region // classify truth (RegionNone: not stored)
	count  []int         // count truth (0: not stored)
	first  uint32        // first write index (writes)
}

// stream generates one connection's deterministic request sequence.
// Reads probe Zipf-popular preloaded members (half the keys), the
// connection's own acknowledged writes (a tenth) and uniform
// non-members (the rest); writes take the next indices of the
// connection's write spaces. Popularity follows zipfS: a flow is
// looked up once per packet, so lookups per flow follow flow size. The
// split between the three kinds of probe is, like opWeights, an
// assumption.
type stream struct {
	w      workload
	seed   uint64
	conn   int
	rng    *rand.Rand
	zipf   [3]*rand.Zipf
	zt     zipfTable
	next   [3]uint32 // next write index per kind
	base   [3]uint32 // first write index per kind
	acked  [3]uint32 // writes acknowledged: indices [base, acked)
	broken [3]bool   // a write failed: stop extending the acked prefix
	req    request
	space  func(kind int) uint32 // write space per kind
	deck   []opKind              // ops left in the current shuffled deck
}

func newStream(w workload, seed uint64, conn int, zt zipfTable) *stream {
	s := &stream{w: w, seed: seed, conn: conn, zt: zt,
		rng: rand.New(rand.NewSource(int64(mix64(seed ^ uint64(conn+1)*0x51ed27)))),
	}
	for k, n := range []int{w.memN, w.assocN, w.multN} {
		s.zipf[k] = rand.NewZipf(s.rng, zipfS, 1, uint64(n-1))
	}
	s.space = func(kind int) uint32 { return writeSpace(conn, kind) }
	s.req = request{keys: newKeyBuf(w.batch), member: make([]bool, w.batch),
		region: make([]shbf.Region, w.batch), count: make([]int, w.batch)}
	return s
}

// pickOp deals ops from a shuffled deck holding each op opWeights
// times, so every 100 requests carry the mix exactly and the share of
// costly writes does not vary from run to run.
func (s *stream) pickOp() opKind {
	if len(s.deck) == 0 {
		for o, n := range opWeights {
			for range n {
				s.deck = append(s.deck, opKind(o))
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	o := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	return o
}

// nextRequest fills s.req with the next request of op o.
func (s *stream) nextRequest(o opKind) *request {
	r := &s.req
	r.op, r.n = o, s.w.batch
	kind := o.writeKind()
	if o.write() {
		r.first = s.next[kind]
		s.next[kind] += uint32(r.n)
		r.set = 1
		if writtenRegion(r.first, r.n) == shbf.RegionS2Only {
			r.set = 2
		}
		for i := 0; i < r.n; i++ {
			putKey(r.keys.keys[i], s.seed, s.space(kind), r.first+uint32(i))
		}
		return r
	}
	for i := 0; i < r.n; i++ {
		r.member[i], r.region[i], r.count[i] = false, shbf.RegionNone, 0
		u := s.rng.Float64()
		switch {
		case u < 0.5:
			idx := uint32(s.zipf[kind].Uint64())
			switch kind {
			case kindMember:
				putKey(r.keys.keys[i], s.seed, spMember, idx)
				r.member[i] = true
			case kindAssoc:
				putKey(r.keys.keys[i], s.seed, spAssoc, idx)
				r.region[i] = assocRegion(idx)
			default:
				putKey(r.keys.keys[i], s.seed, spMult, idx)
				r.count[i] = s.zt.multCount(s.seed, idx)
			}
		case u < 0.6 && s.acked[kind] > s.base[kind]:
			idx := s.base[kind] + uint32(s.rng.Int63n(int64(s.acked[kind]-s.base[kind])))
			putKey(r.keys.keys[i], s.seed, s.space(kind), idx)
			switch kind {
			case kindMember:
				r.member[i] = true
			case kindAssoc:
				r.region[i] = writtenRegion(idx, s.w.batch)
			default:
				r.count[i] = 1
			}
		default:
			putKey(r.keys.keys[i], s.seed, spNon, uint32(s.rng.Int63n(maxIndex)))
		}
	}
	return r
}

// writtenRegion is the region of an association write key: writes go
// to S1 and S2 in alternate requests.
func writtenRegion(idx uint32, batch int) shbf.Region {
	if (idx/uint32(batch))%2 == 0 {
		return shbf.RegionS1Only
	}
	return shbf.RegionS2Only
}

// ack records the outcome of a write request.
func (s *stream) ack(r *request, ok bool) {
	kind := r.op.writeKind()
	if !ok {
		s.broken[kind] = true
	}
	if !s.broken[kind] {
		s.acked[kind] = r.first + uint32(r.n)
	}
}

// handles are one connection's typed views of a namespace.
type handles struct {
	cl    *client.Client
	set   *client.Set
	assoc *client.Associator
	ctr   *client.Counter
}

func newHandles(cl *client.Client, ns string) handles {
	n := cl.Namespace(ns)
	return handles{cl: cl, set: n.Set(), assoc: n.Associator(), ctr: n.Counter()}
}

// outcome is a checked request.
type outcome struct {
	violations int
	falsePos   int
	err        error
}

// do sends r over h and checks every answer against the model.
func (h handles) do(r *request) outcome {
	keys := r.keys.keys[:r.n]
	var out outcome
	switch r.op {
	case opContains:
		got, err := h.set.Check(keys)
		if out.err = err; err == nil {
			out.violations, out.falsePos = checkContains(r.member[:r.n], got)
		}
	case opClassify:
		got, err := h.assoc.Classify(keys)
		if out.err = err; err == nil {
			out.violations = checkClassify(r.region[:r.n], got)
		}
	case opCount:
		got, err := h.ctr.Counts(keys)
		if out.err = err; err == nil {
			out.violations = checkCounts(r.count[:r.n], got)
		}
	case opAdd:
		out.err = h.set.AddAll(keys)
	case opAssocAdd:
		out.err = h.assoc.InsertAll(r.set, keys)
	case opInsert:
		out.err = h.ctr.AddAll(keys)
	}
	return out
}

func checkContains(truth, got []bool) (violations, falsePos int) {
	if len(got) != len(truth) {
		return len(truth), 0
	}
	for i, g := range got {
		if memberViolation(truth[i], g) {
			violations++
		}
		if !truth[i] && g {
			falsePos++
		}
	}
	return violations, falsePos
}

func checkClassify(truth, got []shbf.Region) int {
	if len(got) != len(truth) {
		return len(truth)
	}
	v := 0
	for i, g := range got {
		if assocViolation(truth[i], g) {
			v++
		}
	}
	return v
}

func checkCounts(truth, got []int) int {
	if len(got) != len(truth) {
		return len(truth)
	}
	v := 0
	for i, g := range got {
		if countViolation(truth[i], g) {
			v++
		}
	}
	return v
}

// tally is a closed-loop connection's account of one phase.
type tally struct {
	queryLat, writeLat series
	queryKeys          int64
	writeKeys          int64
	attempted          int64
	failed             int64
	refused            int64
	violations         int64
	scrape             samples
}

func (t *tally) merge(o *tally) {
	t.queryLat = append(t.queryLat, o.queryLat...)
	t.writeLat = append(t.writeLat, o.writeLat...)
	t.scrape = append(t.scrape, o.scrape...)
	t.queryKeys += o.queryKeys
	t.writeKeys += o.writeKeys
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.violations += o.violations
}

// scrapeEvery is how often each workload scrapes metrics on its
// existing connection, as a Prometheus scraper would.
const scrapeEvery = time.Second

// closedLoop runs one connection until deadline: each request is sent
// when the previous one has been answered.
func closedLoop(h handles, s *stream, phaseStart, until time.Time, scraper bool, tr *tracer, conn int) *tally {
	t := &tally{}
	nextScrape := time.Now().Add(scrapeEvery / 2)
	var seq uint64
	for {
		now := time.Now()
		if !now.Before(until) {
			return t
		}
		if scraper && !now.Before(nextScrape) {
			nextScrape = now.Add(scrapeEvery)
			_, err := h.cl.Metrics()
			end := time.Now()
			t.attempted++
			if err != nil {
				t.failed++
				t.scrape = append(t.scrape, failedSample)
			} else {
				t.scrape = append(t.scrape, end.Sub(now))
			}
			if tr.tracing() {
				seq++
				tr.add("client.metrics", now, end, 0, uint64(conn)<<40|seq, conn)
			}
			continue
		}
		r := s.nextRequest(s.pickOp())
		start := time.Now()
		out := h.do(r)
		end := time.Now()
		lat := end.Sub(start)
		if tr.tracing() {
			seq++
			tr.add("client."+opNames[r.op], start, end, 0, uint64(conn)<<40|seq, conn)
		}
		t.attempted++
		t.violations += int64(out.violations)
		if out.err != nil || out.violations > 0 {
			t.failed++
			if out.err != nil && (client.IsOverloaded(out.err) || client.IsConflict(out.err)) {
				t.refused++
			}
			lat = failedSample
		}
		o := obs{at: end.Sub(phaseStart), lat: lat}
		if lat != failedSample {
			o.keys = r.n
		}
		if r.op.write() {
			s.ack(r, out.err == nil)
			t.writeLat = append(t.writeLat, o)
			t.writeKeys += int64(o.keys)
		} else {
			t.queryLat = append(t.queryLat, o)
			t.queryKeys += int64(o.keys)
		}
	}
}

// parallel runs f(0..n-1) concurrently and returns the first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preloadBatch is the request size of preload and accuracy probes.
const preloadBatch = 4096

// preload inserts the workload's members over its transport, the
// index ranges split across the connections.
func preload(hs []handles, w workload, seed uint64, zt zipfTable) error {
	return parallel(len(hs), func(c int) error {
		h := hs[c]
		part := func(n int) (uint32, uint32) {
			return uint32(n * c / len(hs)), uint32(n * (c + 1) / len(hs))
		}
		buf := newKeyBuf(preloadBatch)
		lo, hi := part(w.memN)
		for i := lo; i < hi; i += preloadBatch {
			n := int(min(hi-i, preloadBatch))
			for j := 0; j < n; j++ {
				putKey(buf.keys[j], seed, spMember, i+uint32(j))
			}
			if err := h.set.AddAll(buf.keys[:n]); err != nil {
				return fmt.Errorf("preload membership: %w", err)
			}
		}
		lo, hi = part(w.assocN)
		s1, s2 := newKeyBuf(preloadBatch), newKeyBuf(preloadBatch)
		var n1, n2 int
		flush := func(set int, b *keyBuf, n *int) error {
			if *n == 0 {
				return nil
			}
			err := h.assoc.InsertAll(set, b.keys[:*n])
			*n = 0
			if err != nil {
				return fmt.Errorf("preload association S%d: %w", set, err)
			}
			return nil
		}
		for i := lo; i < hi; i++ {
			r := assocRegion(i)
			if r != shbf.RegionS2Only {
				putKey(s1.keys[n1], seed, spAssoc, i)
				if n1++; n1 == preloadBatch {
					if err := flush(1, s1, &n1); err != nil {
						return err
					}
				}
			}
			if r != shbf.RegionS1Only {
				putKey(s2.keys[n2], seed, spAssoc, i)
				if n2++; n2 == preloadBatch {
					if err := flush(2, s2, &n2); err != nil {
						return err
					}
				}
			}
		}
		if err := flush(1, s1, &n1); err != nil {
			return err
		}
		if err := flush(2, s2, &n2); err != nil {
			return err
		}
		// A key with multiplicity c appears c times in the add batches.
		lo, hi = part(w.multN)
		n := 0
		for i := lo; i < hi; i++ {
			for range zt.multCount(seed, i) {
				putKey(buf.keys[n], seed, spMult, i)
				if n++; n == preloadBatch {
					if err := h.ctr.AddAll(buf.keys[:n]); err != nil {
						return fmt.Errorf("preload multiplicity: %w", err)
					}
					n = 0
				}
			}
		}
		if n > 0 {
			if err := h.ctr.AddAll(buf.keys[:n]); err != nil {
				return fmt.Errorf("preload multiplicity: %w", err)
			}
		}
		return nil
	})
}

// accuracy is the paper's three accuracy measures on state at its
// design point, from a fixed probe set of the seed.
type accuracy struct {
	fpr, clear, correct float64
	nonMembers, nAssoc  int
	nMult, violations   int
	falsePos, clearN    int
	correctN            int
}

// Probe-set sizes: at the design point the membership FPR is ~0.4%,
// so 2^20 non-member probes see ~4000 false positives, a ~1.6% sampling
// error between seeds.
const (
	fprProbes   = 1 << 20
	assocProbes = 1 << 18
	multProbes  = 1 << 18
)

// measureAccuracy probes membership on the workload's namespace and
// association and multiplicity on the accuracy namespace.
func (b *bench) measureAccuracy() (accuracy, error) {
	cfg := b.w.accuracyConfig()
	if err := b.hs[0].cl.CreateNamespace(cfg); err != nil {
		return accuracy{}, fmt.Errorf("create %s namespace: %w", accuracyNamespace, err)
	}
	accHs := make([]handles, len(b.hs))
	for c, h := range b.hs {
		accHs[c] = newHandles(h.cl, accuracyNamespace)
	}
	onlyAcc := b.w
	onlyAcc.memN = 0
	if err := preload(accHs, onlyAcc, b.seed, b.zt); err != nil {
		return accuracy{}, err
	}
	a, err := probeAccuracy(b.hs, accHs, b.w, b.seed, b.zt, b.scale)
	if err != nil {
		return a, err
	}
	return a, b.hs[0].cl.DeleteNamespace(accuracyNamespace)
}

func probeAccuracy(hs, accHs []handles, w workload, seed uint64, zt zipfTable, scale float64) (accuracy, error) {
	nNon := scaled(fprProbes, scale)
	nAssoc := min(scaled(assocProbes, scale), w.assocN)
	nMult := min(scaled(multProbes, scale), w.multN)
	parts := make([]accuracy, len(hs))
	err := parallel(len(hs), func(c int) error {
		h, acc, a := hs[c], accHs[c], &parts[c]
		buf := newKeyBuf(preloadBatch)
		each := func(n int, space uint32, probe func(keys [][]byte, first uint32) error) error {
			lo, hi := n*c/len(hs), n*(c+1)/len(hs)
			for i := lo; i < hi; i += preloadBatch {
				m := min(hi-i, preloadBatch)
				for j := 0; j < m; j++ {
					putKey(buf.keys[j], seed, space, uint32(i+j))
				}
				if err := probe(buf.keys[:m], uint32(i)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := each(nNon, spNon, func(keys [][]byte, _ uint32) error {
			got, err := h.set.Check(keys)
			if err != nil {
				return err
			}
			for _, g := range got {
				if g {
					a.falsePos++
				}
			}
			a.nonMembers += len(keys)
			return nil
		}); err != nil {
			return fmt.Errorf("membership probes: %w", err)
		}
		if err := each(nAssoc, spAssoc, func(keys [][]byte, first uint32) error {
			got, err := acc.assoc.Classify(keys)
			if err != nil {
				return err
			}
			for j, g := range got {
				truth := assocRegion(first + uint32(j))
				if assocViolation(truth, g) {
					a.violations++
				} else if g == truth {
					a.clearN++
				}
			}
			a.nAssoc += len(keys)
			return nil
		}); err != nil {
			return fmt.Errorf("association probes: %w", err)
		}
		if err := each(nMult, spMult, func(keys [][]byte, first uint32) error {
			got, err := acc.ctr.Counts(keys)
			if err != nil {
				return err
			}
			for j, g := range got {
				truth := zt.multCount(seed, first+uint32(j))
				if countViolation(truth, g) {
					a.violations++
				} else if g == truth {
					a.correctN++
				}
			}
			a.nMult += len(keys)
			return nil
		}); err != nil {
			return fmt.Errorf("multiplicity probes: %w", err)
		}
		return nil
	})
	var a accuracy
	for _, p := range parts {
		a.nonMembers += p.nonMembers
		a.nAssoc += p.nAssoc
		a.nMult += p.nMult
		a.violations += p.violations
		a.falsePos += p.falsePos
		a.clearN += p.clearN
		a.correctN += p.correctN
	}
	a.fpr = float64(a.falsePos) / float64(max(1, a.nonMembers))
	a.clear = float64(a.clearN) / float64(max(1, a.nAssoc))
	a.correct = float64(a.correctN) / float64(max(1, a.nMult))
	return a, err
}
