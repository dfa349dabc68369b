// Command perfbench is the repository's end-to-end benchmark of the
// set-query service. One process starts an in-process server.Server on
// loopback listeners, preloads it over the workload's transport, and
// drives it through the shipped client and ingest agents. Every answer
// is checked against an exact model of what was inserted.
//
//	perfbench --workload small-batch --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, replays the request
// stream down the layer ladder, writes a span file and a layer table,
// and prints the per-layer metrics. The last line of standard output
// is a JSON result: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"shbf/internal/server"
)

func main() { os.Exit(run(os.Args[1:], 1, os.Stdout, os.Stderr)) }

// setupRepeats is how many times an untraced run sets up its daemon;
// setup_s is the median.
const setupRepeats = 3

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    uint64
	seconds time.Duration
	scale   float64
	out     string
	tr      *tracer
	zt      zipfTable
	stdout  io.Writer

	d       *deployment
	hs      []handles
	streams []*stream
	ing     *ingestRun // the traced run's ingest probe

	rep        report
	attempted  int64
	failed     int64
	violations int64
	refused    int64 // overloaded or conflict answers
	udpDrops   int64 // datagrams lost in the kernel or dropped by the daemon
}

// run runs the benchmark with command-line args. scale shrinks every
// geometry and preload; the benchmark runs at 1 and only the self-test
// passes less.
func run(args []string, scale float64, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: small-batch, bulk or json")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the span file and layer table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads(scale)[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload small-batch|bulk|json, --trace 0|1, --seconds > 0\n")
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), scale: scale,
		out: *out, zt: newZipfTable(w.cfg.MaxCount, zipfS), stdout: stdout}
	var res result
	var err error
	if *trace == 1 {
		b.tr = newTracer()
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if b.d != nil {
		if cerr := b.teardown(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// setup starts a daemon and preloads it over the workload's transport,
// returning the time from server start to preload done.
func (b *bench) setup() (time.Duration, error) {
	start := time.Now()
	d, err := deploy(b.w.cfg, b.tr)
	if err != nil {
		return 0, err
	}
	b.d = d
	b.hs = nil
	for range b.w.conns {
		cl, err := d.dial(b.w.transport)
		if err != nil {
			return 0, err
		}
		b.hs = append(b.hs, newHandles(cl, server.DefaultNamespace))
	}
	if err := preload(b.hs, b.w, b.seed, b.zt); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// teardown closes the current daemon and its clients.
func (b *bench) teardown() error {
	if b.ing != nil {
		b.ing.close()
		b.ing = nil
	}
	for _, h := range b.hs {
		h.cl.Close()
	}
	b.hs = nil
	err := b.d.close()
	b.d = nil
	return err
}

// prepare sets up (repeats times, keeping the last daemon), measures
// accuracy on the fresh state and builds the request streams.
func (b *bench) prepare(repeats int) error {
	var setups, heaps []float64
	heap0 := heapInUse()
	for i := 0; i < repeats; i++ {
		if b.d != nil {
			if err := b.teardown(); err != nil {
				return err
			}
		}
		d, err := b.setup()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		heap1 := heapInUse()
		setups = append(setups, d.Seconds())
		heaps = append(heaps, float64(heap1-min(heap0, heap1))/(1<<20))
	}
	b.rep.add("setup_s", median(setups), "s", len(setups), "server start to preload done, median")
	b.rep.add("heap_mib", median(heaps), "MiB", len(heaps), "heap after setup minus heap before the first, median")

	acc, err := b.measureAccuracy()
	if err != nil {
		return fmt.Errorf("accuracy probes: %w", err)
	}
	b.violations += int64(acc.violations)
	b.attempted += int64(acc.nonMembers + acc.nAssoc + acc.nMult)
	b.failed += int64(acc.violations)
	b.rep.add("member_fpr", acc.fpr, "ratio", acc.nonMembers, fmt.Sprintf("%d false positives", acc.falsePos))
	b.rep.add("assoc_clear_ratio", acc.clear, "ratio", acc.nAssoc, "single-region answers for S1∪S2 members at the design point")
	b.rep.add("mult_correct_ratio", acc.correct, "ratio", acc.nMult, "exact counts for multiset members at the design point")

	b.streams = nil
	for c := range b.w.conns {
		b.streams = append(b.streams, newStream(b.w, b.seed, c, b.zt))
	}
	return nil
}

// phaseResult is one measured phase.
type phaseResult struct {
	t       *tally
	elapsed time.Duration
	mem     runtime.MemStats // deltas over the phase
	cpu     time.Duration
}

// phase runs the workload's traffic for b.seconds.
func (b *bench) phase() *phaseResult {
	// Every phase starts from a collected heap, so when the next GC
	// cycle falls is the same from run to run.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	p := &phaseResult{t: &tally{}}
	start := time.Now()
	until := start.Add(b.seconds)
	tallies := make([]*tally, b.w.conns)
	parallel(b.w.conns, func(c int) error {
		tallies[c] = closedLoop(b.hs[c], b.streams[c], start, until, c == 0, b.tr, c)
		return nil
	})
	p.elapsed = time.Since(start)
	for _, t := range tallies {
		p.t.merge(t)
	}
	runtime.ReadMemStats(&ms1)
	p.cpu = cpuTime() - cpu0
	p.mem.Mallocs = ms1.Mallocs - ms0.Mallocs
	p.mem.TotalAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.mem.PauseTotalNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	p.mem.NumGC = ms1.NumGC - ms0.NumGC

	b.attempted += p.t.attempted
	b.failed += p.t.failed
	b.violations += p.t.violations
	b.refused += p.t.refused
	return p
}

// accountIngest counts an ingest probe's datagrams: datagrams never
// seen applied (lost in the kernel or unreadable), daemon drops, keys
// the daemon does not hold and an envelope flush left unchecked all
// fail.
func (b *bench) accountIngest(p *ingestResult) {
	var daemon int64
	for _, n := range p.dropped.Dropped {
		daemon += int64(n)
	}
	b.attempted += p.sent
	b.udpDrops += p.unapplied + daemon
	b.failed += p.unapplied + daemon + int64(p.violations+p.unchecked)
	b.violations += int64(p.violations)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (p *phaseResult) queryKeysPerSec() float64 {
	return float64(p.t.queryKeys) / p.elapsed.Seconds()
}

// untraced is the end-to-end run.
func (b *bench) untraced() (result, error) {
	b.provenance()
	if err := b.prepare(setupRepeats); err != nil {
		return result{}, err
	}
	p := b.phase()
	q := p.t.queryLat.summary(p.elapsed)
	b.rep.add("query_keys_per_s", q.rate, "1/s", int(p.t.queryKeys), "")
	b.rep.add("query_p50_us", us(q.p50), "us", q.n, "")
	b.rep.add("query_p99_us", us(q.tail), "us", q.n, q.tailName)
	wl := p.t.writeLat.summary(p.elapsed)
	b.rep.add("write_keys_per_s", float64(p.t.writeKeys)/p.elapsed.Seconds(), "1/s", int(p.t.writeKeys), "")
	b.rep.add("write_p99_us", us(wl.tail), "us", wl.n, wl.tailName)
	b.footer()
	return b.rep.result(b.violations == 0, b.attempted, b.failed).only(endToEnd), nil
}

// footer prints the failure account and the human-readable metrics.
func (b *bench) footer() {
	b.rep.add("attempted", float64(b.attempted), "count", 1, "operations: requests, probe keys and datagrams")
	b.rep.add("failed", float64(b.failed), "count", 1, "violations, transport errors, refusals and UDP drops")
	b.rep.add("violations", float64(b.violations), "count", 1, "answers the exact model rules out")
	b.rep.add("refused", float64(b.refused), "count", 1, "overloaded or conflict answers")
	b.rep.add("udp_drops", float64(b.udpDrops), "count", 1, "datagrams lost in the kernel or dropped by the daemon")
	fmt.Fprintf(b.stdout, "# workload %s (%s): %s\n", b.w.name, b.w.transport, b.w.why)
	b.rep.print(b.stdout)
}

// Names of the metrics the result line carries (BENCHMARK.json).
// write_p99_us is printed but not carried: a write's tail is set by
// which costly association or multiplicity insert it queued behind, and
// its run-to-run spread (20–50% over ten seeds) is wider than any bound
// it could be held to.
var endToEnd = []string{"setup_s", "query_keys_per_s", "query_p50_us", "query_p99_us",
	"write_keys_per_s", "heap_mib", "member_fpr", "assoc_clear_ratio", "mult_correct_ratio"}

func (r result) only(names []string) result {
	m := map[string]resultValue{}
	for _, n := range names {
		if v, ok := r.Metrics[n]; ok {
			m[n] = v
		}
	}
	r.Metrics = m
	return r
}
