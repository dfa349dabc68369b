package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"
)

// failedSample stands for a failed or refused request in a latency
// sample set: it misses any latency limit, so it sorts last.
const failedSample = time.Duration(math.MaxInt64)

// samples is a set of latencies.
type samples []time.Duration

// quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank of a
// sorted set.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailQuantiles are the candidate tail percentiles, highest first. The
// metrics are named p99, so p99 is the highest reported.
var tailQuantiles = []float64{0.99, 0.95, 0.9, 0.5}

// summary is a timing reported as its median and the highest
// percentile with at least ten samples beyond it.
type summary struct {
	n        int
	p50      time.Duration
	tail     time.Duration
	tailName string // e.g. "p99"
}

func summarize(s samples) summary {
	s = slices.Clone(s)
	slices.Sort(s)
	sm := summary{n: len(s), p50: s.quantile(0.5), tail: s.quantile(0.5), tailName: "p50"}
	for _, q := range tailQuantiles {
		if float64(len(s))*(1-q) >= 10 {
			sm.tail, sm.tailName = s.quantile(q), fmt.Sprintf("p%g", q*100)
			break
		}
	}
	return sm
}

// obs is one timed operation: when it completed, measured from the
// start of its phase, its latency, and the keys it completed (0 when
// it failed).
type obs struct {
	at, lat time.Duration
	keys    int
}

type series []obs

// maxWindows caps the sub-windows a phase is cut into for its tail:
// the reported p99 is the median of the windows' p99s, so one stall (a
// GC cycle, a rotation) moves one window rather than the figure. Each
// window keeps at least windowSamples samples, 100 beyond its p99, so
// the windows' own p99s are steady. Rates and medians are taken over the
// whole phase, where the mean of the windows is steadier than their
// median.
const (
	maxWindows    = 8
	windowSamples = 10000
)

// wsummary is a series' rate, median and windowed tail.
type wsummary struct {
	n        int
	windows  int
	p50      time.Duration
	tail     time.Duration
	tailName string
	rate     float64 // completed keys per second
}

func (s series) summary(elapsed time.Duration) wsummary {
	nw := max(1, min(maxWindows, len(s)/windowSamples))
	width := elapsed / time.Duration(nw)
	lats := make([]samples, nw)
	keys := 0
	for _, o := range s {
		w := min(nw-1, int(o.at/width))
		lats[w] = append(lats[w], o.lat)
		keys += o.keys
	}
	least := len(s)
	for _, l := range lats {
		least = min(least, len(l))
	}
	q, name := 0.5, "p50"
	for _, tq := range tailQuantiles {
		if float64(least)*(1-tq) >= 10 {
			q, name = tq, fmt.Sprintf("p%g", tq*100)
			break
		}
	}
	var tails []float64
	for _, l := range lats {
		slices.Sort(l)
		tails = append(tails, float64(l.quantile(q)))
	}
	all := s.lats()
	slices.Sort(all)
	return wsummary{n: len(s), windows: nw, p50: all.quantile(0.5), tail: duration(median(tails)),
		tailName: fmt.Sprintf("%s, median of %d windows", name, nw), rate: float64(keys) / elapsed.Seconds()}
}

// duration converts back from float64, where a failed sample has
// rounded past the largest Duration.
func duration(f float64) time.Duration {
	if f >= float64(failedSample) {
		return failedSample
	}
	return time.Duration(f)
}

func (s series) lats() samples {
	out := make(samples, len(s))
	for i, o := range s {
		out[i] = o.lat
	}
	return out
}

// us converts a latency to microseconds; a failed sample reads as +Inf.
func us(d time.Duration) float64 {
	if d >= failedSample {
		return math.Inf(1)
	}
	return float64(d) / float64(time.Microsecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// report collects a run's metrics in the order they were added.
type report struct{ metrics []metric }

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, n, note})
}

// print writes one human-readable line per metric.
func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-44s %14.6g %-8s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Note != "" {
			fmt.Fprintf(w, "  (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result(correct bool, attempted, failed int64) result {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range r.metrics {
		v := m.Value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // JSON has no infinity; a failed tail reads as the worst value
		}
		res.Metrics[m.Name] = resultValue{v, m.Unit}
	}
	return res
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
