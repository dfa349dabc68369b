package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"testing"

	"shbf"
	"shbf/internal/ingest"
	"shbf/internal/server"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricNamesMatchBenchmarkFile keeps the program's metric lists and
// BENCHMARK.json in step.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, names(perLayer())) {
		t.Errorf("per_layer in BENCHMARK.json = %v, program reports %v", layers, names(perLayer()))
	}
	for i, m := range perLayer() {
		if i < len(bf.PerLayer) && bf.PerLayer[i].Unit != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, bf.PerLayer[i].Unit, m.Unit)
		}
	}
	all := workloads(1)
	for _, w := range bf.Workloads {
		if _, ok := all[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// TestWorkloadsReportEveryMetric runs every workload briefly at a tiny
// scale, untraced and traced, and checks that each named metric is
// printed with its unit and carried in the result line.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, name := range []string{"small-batch", "bulk", "json"} {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.3",
					"--trace", fmt.Sprint(trace), "--out", t.TempDir()}
				if code := run(args, 0.05, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if trace == 1 {
					want = names(perLayer())
				}
				var got []string
				for n := range res.Metrics {
					got = append(got, n)
				}
				slices.Sort(got)
				sorted := slices.Sorted(slices.Values(want))
				if !slices.Equal(got, sorted) {
					t.Errorf("result metrics %v, want %v", got, sorted)
				}
				printed := map[string]string{}
				line := regexp.MustCompile(`^metric (\S+)\s+\S+\s+(\S+)\s+n=\d+`)
				sc := bufio.NewScanner(bytes.NewReader(stdout.Bytes()))
				for sc.Scan() {
					if m := line.FindStringSubmatch(sc.Text()); m != nil {
						printed[m[1]] = m[2]
					}
				}
				for _, n := range want {
					if printed[n] != units[n] || res.Metrics[n].Unit != units[n] {
						t.Errorf("%s printed with unit %q, result unit %q, want %q", n, printed[n], res.Metrics[n].Unit, units[n])
					}
				}
			})
		}
	}
}

// TestCheckerCountsPlantedWrongAnswers feeds the checker requests whose
// model truth has been corrupted — keys the daemon never stored,
// claimed to be members, to lie in a region, to have a count — and
// requires every such answer to be counted as a violation, so the
// checker cannot pass vacuously.
func TestCheckerCountsPlantedWrongAnswers(t *testing.T) {
	w := workloads(0.01)["small-batch"]
	d, err := deploy(w.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	cl, err := d.dial("shbp")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h := newHandles(cl, server.DefaultNamespace)
	s := newStream(w, 1, 0, newZipfTable(w.cfg.MaxCount, zipfS))
	for _, op := range []opKind{opContains, opClassify, opCount} {
		r := s.nextRequest(op)
		for i := 0; i < r.n; i++ {
			putKey(r.keys.keys[i], 1, spNon, uint32(i))
			r.member[i], r.region[i], r.count[i] = true, shbf.RegionS1Only, 3
		}
		out := h.do(r)
		if out.err != nil {
			t.Fatal(out.err)
		}
		if out.violations != r.n {
			t.Errorf("%s: %d violations for %d planted wrong answers", opNames[op], out.violations, r.n)
		}
	}
	if v, _ := checkContains([]bool{true, false}, []bool{true}); v == 0 {
		t.Error("a short answer list passed the contains check")
	}
}

// TestParseShBU checks the UDP tap reads what the agents write: a tap
// that could not match datagrams would leave the ingest probe with
// nothing to check.
func TestParseShBU(t *testing.T) {
	for _, d := range []ingest.Datagram{
		{Type: ingest.TypeAddBatch, Source: 7, Seq: 3, Namespace: "default", Keys: newKeyBuf(2).keys},
		{Type: ingest.TypeEnvelopeFrag, Source: 9, Seq: 4, Namespace: "edge", FlushID: 1,
			FragIndex: 1, FragCount: 2, EnvLen: 4, FragOffset: 2, Frag: []byte{1, 2}},
	} {
		p, err := ingest.Append(nil, &d)
		if err != nil {
			t.Fatal(err)
		}
		h := parseShBU(p)
		final := d.Type == ingest.TypeEnvelopeFrag
		if !h.ok || h.src != d.Source || h.seq != d.Seq || h.final != final {
			t.Errorf("type %d: parsed %+v", d.Type, h)
		}
	}
	if parseShBU([]byte("not a datagram")).ok {
		t.Error("garbage parsed as a datagram")
	}
}
