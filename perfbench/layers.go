package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"shbf/internal/ingest"
)

// provenance prints what identifies the host, the build and the
// workload's sizes, so results from different hosts can be told apart.
func (b *bench) provenance() {
	l2, l3 := cacheSize(2), cacheSize(3)
	bits := map[string]int{"membership": b.w.cfg.MembershipBits, "association": b.w.cfg.AssociationBits,
		"multiplicity": b.w.cfg.MultiplicityBits}
	acc := b.w.accuracyConfig()
	state := (bits["membership"] + bits["association"] + bits["multiplicity"]) / 8
	p := map[string]any{
		"workload": b.w.name, "seed": b.seed, "seconds": b.seconds.Seconds(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "l2_bytes": l2, "l3_bytes": l3, "commit": gitCommit(),
		"transport": b.w.transport, "batch": b.w.batch, "connections": b.w.conns,
		"filter_bits":            bits,
		"accuracy_filter_bits":   map[string]int{"association": acc.AssociationBits, "multiplicity": acc.MultiplicityBits},
		"preloaded_keys":         map[string]int{"membership": b.w.memN, "association": b.w.assocN, "multiplicity": b.w.multN},
		"filter_bit_array_bytes": state,
	}
	if l2 > 0 {
		p["filter_bytes_per_l2"] = float64(state) / float64(l2)
	}
	line, _ := json.Marshal(p)
	fmt.Fprintf(b.stdout, "# provenance %s\n", line)
}

func cacheSize(level int) int64 {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d", i)
		lv, err := os.ReadFile(dir + "/level")
		if err != nil {
			return 0
		}
		if strings.TrimSpace(string(lv)) != fmt.Sprint(level) {
			continue
		}
		if typ, _ := os.ReadFile(dir + "/type"); strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, err := os.ReadFile(dir + "/size")
		if err != nil {
			return 0
		}
		var n int64
		var unit string
		fmt.Sscanf(strings.TrimSpace(string(sz)), "%d%s", &n, &unit)
		switch unit {
		case "K":
			n <<= 10
		case "M":
			n <<= 20
		}
		return n
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checkout's HEAD without running git; a checkout
// that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// perLayer lists the traced run's metrics with their units, in order.
func perLayer() []metric {
	var ms []metric
	add := func(name, unit string) { ms = append(ms, metric{Name: name, Unit: unit}) }
	add("hashing.digest_ns_per_key", "ns")
	for _, row := range []string{"core.", "sharded.", "server.shbp_inproc_", "client.shbp_loopback_",
		"server.http_inproc_", "client.http_loopback_"} {
		for _, op := range opNames {
			add(row+op+"_ns_per_key", "ns")
		}
	}
	add("sharded.contains_under_writes_ns_per_key", "ns")
	add("sharded.overhead_ratio", "ratio")
	add("window.contains_ns_per_key", "ns")
	add("window.rotate_ms", "ms")
	add("server.service_us_p50", "us")
	add("server.service_us_p99", "us")
	add("server.refused", "count")
	add("wire.req_bytes_per_key", "B")
	add("wire.resp_bytes_per_key", "B")
	add("client.outside_service_us_p50", "us")
	add("server.http_handler_us_p50", "us")
	add("server.http_handler_us_p99", "us")
	add("server.http_req_bytes_per_key", "B")
	add("server.http_resp_bytes_per_key", "B")
	add("ingest.agent_add_ns_per_key", "ns")
	add("ingest.flush_us_p50", "us")
	add("ingest.envelope_flush_ms", "ms")
	add("ingest.wire_bytes_per_key", "B")
	add("ingest.recv_us_per_datagram", "us")
	add("ingest.recv_busy_ratio", "ratio")
	add("ingest.merge_ms", "ms")
	add("ingest.kernel_drops", "count")
	for _, r := range ingest.DropReasons() {
		if r != ingest.DropNone {
			add("ingest.dropped_"+r.String(), "count")
		}
	}
	add("metrics.scrape_ms", "ms")
	add("runtime.allocs_per_req", "count")
	add("runtime.bytes_per_req", "B")
	add("runtime.gc_pause_ms", "ms")
	add("runtime.cpu_us_per_kkey", "us")
	add("bench.late_p99_us", "us")
	add("bench.trace_overhead_ratio", "ratio")
	add("bench.untraced_query_keys_per_s", "1/s")
	add("bench.traced_query_keys_per_s", "1/s")
	return ms
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traced is the per-layer run: an untraced phase and a traced phase on
// one daemon, then the layer ladder and an ingest probe.
func (b *bench) traced() (result, error) {
	b.provenance()
	if err := b.prepare(1); err != nil {
		return result{}, err
	}
	base := b.phase()
	b.tr.on.Store(true)
	tp := b.phase()
	b.tr.mu.Lock()
	handler := append(samples(nil), b.tr.handler...)
	b.tr.mu.Unlock()
	lad, err := b.runLadder()
	if err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}
	if b.ing, err = newIngestRun(b.w, b.seed, b.d, b.tr, b.hs[0]); err != nil {
		return result{}, fmt.Errorf("ingest probe: %w", err)
	}
	ip, err := b.ing.probe(ingestProbe)
	if err != nil {
		return result{}, fmt.Errorf("ingest probe: %w", err)
	}
	b.accountIngest(&ip)
	b.tr.on.Store(false)
	b.violations += int64(lad.violations)
	b.failed += int64(lad.violations)

	spanPath := filepath.Join(b.out, "spans-"+b.w.name+".jsonl")
	nSpans, err := b.tr.dumpSpans(spanPath)
	if err != nil {
		return result{}, fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(b.stdout, "# spans %d written to %s\n", nSpans, spanPath)
	if err := b.layerTable(lad); err != nil {
		return result{}, err
	}

	vals := map[string]float64{}
	counts := map[string]int{}
	set := func(name string, v float64, n int) { vals[name], counts[name] = v, n }
	set("hashing.digest_ns_per_key", lad.digestNsPerKey, ladderRequests(b.w.batch)*b.w.batch)
	for i, row := range []string{"core.", "sharded.", "server.shbp_inproc_", "client.shbp_loopback_",
		"server.http_inproc_", "client.http_loopback_"} {
		for o, op := range opNames {
			set(row+op+"_ns_per_key", lad.rows[i].nsPerKey[o], int(lad.rows[i].keys[o]))
		}
	}
	n := ladderRequests(b.w.batch) * b.w.batch
	set("sharded.contains_under_writes_ns_per_key", lad.containsUnderWr, n)
	if c := lad.rows[0].nsPerKey[opContains]; c > 0 {
		set("sharded.overhead_ratio", lad.rows[1].nsPerKey[opContains]/c, n)
	}
	set("window.contains_ns_per_key", lad.windowContains, n)
	set("window.rotate_ms", millis(summarize(lad.windowRotate).p50), len(lad.windowRotate))

	// Server-side ShBP service time, matched per request to the client
	// span that contains it.
	var service, outside samples
	b.tr.mu.Lock()
	clientSpans := append([]span(nil), b.tr.spans...)
	conns := append([]*tapConn(nil), b.tr.conns...)
	b.tr.mu.Unlock()
	for _, c := range conns {
		c.mu.Lock()
		srv := append([]span(nil), c.spans...)
		service = append(service, c.service...)
		c.mu.Unlock()
		matchParents(clientSpans, srv, c.idx, func(s *span, parent span) {
			outside = append(outside, time.Duration((parent.End-parent.Start)-(s.End-s.Start)))
		})
	}
	sv := summarize(service)
	set("server.service_us_p50", us(sv.p50), sv.n)
	set("server.service_us_p99", us(sv.tail), sv.n)
	set("server.refused", float64(base.t.refused+tp.t.refused), int(base.t.attempted+tp.t.attempted))
	set("wire.req_bytes_per_key", lad.wireReqPerKey, int(sumKeys(lad.rows[2])))
	set("wire.resp_bytes_per_key", lad.wireRespPerKey, int(sumKeys(lad.rows[2])))
	if b.w.transport == "http" {
		// HTTP requests carry no connection identity to match on: the
		// outside time is the median client latency minus the median
		// handler time.
		handlerP50 := summarize(handler).p50
		set("client.outside_service_us_p50", us(summarize(tp.t.queryLat.lats()).p50-handlerP50), len(handler))
	} else {
		set("client.outside_service_us_p50", us(summarize(outside).p50), len(outside))
	}
	if b.w.transport != "http" {
		handler = lad.handler
	}
	hs := summarize(handler)
	set("server.http_handler_us_p50", us(hs.p50), hs.n)
	set("server.http_handler_us_p99", us(hs.tail), hs.n)
	set("server.http_req_bytes_per_key", lad.httpReqPerKey, int(sumKeys(lad.rows[4])))
	set("server.http_resp_bytes_per_key", lad.httpRespPerKey, int(sumKeys(lad.rows[4])))

	ing := b.ing
	set("ingest.agent_add_ns_per_key", float64(ing.addTime.Nanoseconds())/float64(max(1, ing.addKeys)), int(ing.addKeys))
	set("ingest.flush_us_p50", us(summarize(ing.flushLat).p50), len(ing.flushLat))
	set("ingest.envelope_flush_ms", millis(summarize(ing.envFlush).p50), len(ing.envFlush))
	set("ingest.wire_bytes_per_key", float64(ing.sentBytes)/float64(max(1, ing.addKeys)), int(ing.addKeys))
	b.d.udp.mu.Lock()
	merge := append(samples(nil), b.d.udp.merge...)
	b.d.udp.mu.Unlock()
	set("ingest.recv_us_per_datagram", us(ip.busy)/float64(max(1, ip.read)), int(ip.read))
	set("ingest.recv_busy_ratio", ip.busy.Seconds()/ip.elapsed.Seconds(), int(ip.read))
	set("ingest.merge_ms", millis(summarize(merge).p50), len(merge))
	set("ingest.kernel_drops", float64(ip.sent-ip.read), int(ip.sent))
	for _, r := range ingest.DropReasons() {
		if r != ingest.DropNone {
			set("ingest.dropped_"+r.String(), float64(ip.dropped.Dropped[r]), int(ip.read))
		}
	}
	late := summarize(ing.late)
	set("bench.late_p99_us", us(late.tail), late.n)
	scrapes := append(append(samples(nil), base.t.scrape...), tp.t.scrape...)
	set("metrics.scrape_ms", millis(summarize(scrapes).p50), len(scrapes))
	reqs := float64(max(1, base.t.attempted))
	set("runtime.allocs_per_req", float64(base.mem.Mallocs)/reqs, int(base.t.attempted))
	set("runtime.bytes_per_req", float64(base.mem.TotalAlloc)/reqs, int(base.t.attempted))
	set("runtime.gc_pause_ms", float64(base.mem.PauseTotalNs)/1e6, int(base.mem.NumGC))
	keys := base.t.queryKeys + base.t.writeKeys
	set("runtime.cpu_us_per_kkey", us(base.cpu)/(float64(max(1, keys))/1000), int(keys))
	set("bench.untraced_query_keys_per_s", base.queryKeysPerSec(), int(base.t.queryKeys))
	set("bench.traced_query_keys_per_s", tp.queryKeysPerSec(), int(tp.t.queryKeys))
	set("bench.trace_overhead_ratio", tp.queryKeysPerSec()/base.queryKeysPerSec(), 2)

	for _, m := range perLayer() {
		b.rep.add(m.Name, vals[m.Name], m.Unit, counts[m.Name], "")
	}
	b.footer()
	return b.rep.result(b.violations == 0, b.attempted, b.failed).only(names(perLayer())), nil
}

// layerTable prints the ladder (ns per key per op, each row and its
// difference from the row before) and writes it beside the span file.
func (b *bench) layerTable(lad *ladderResult) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# layer ladder, %s, seed %d: ns per key; each row's cost minus the row above is that layer's\n", b.w.name, b.seed)
	fmt.Fprintf(&sb, "# %-16s", "row")
	for _, op := range opNames {
		fmt.Fprintf(&sb, " %20s", op)
	}
	sb.WriteString("\n")
	for i, row := range lad.rows {
		fmt.Fprintf(&sb, "# %-16s", ladderRows[i])
		for o := range opNames {
			cell := fmt.Sprintf("%.1f", row.nsPerKey[o])
			if i > 0 && ladderRows[i] != "http_inproc" {
				cell += fmt.Sprintf(" (%+.1f)", row.nsPerKey[o]-lad.rows[i-1].nsPerKey[o])
			}
			fmt.Fprintf(&sb, " %20s", cell)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("# http_inproc starts the HTTP ladder: its difference is taken against no row.\n")
	if _, err := io.WriteString(b.stdout, sb.String()); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.out, "layers-"+b.w.name+".txt"), []byte(sb.String()), 0o644)
}
