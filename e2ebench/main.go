// Command e2ebench is the repository's end-to-end benchmark. It replays
// one workload through the serving simulator for a fixed time, audits
// every run's outputs, and prints either the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). The
// last line of its output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it give each metric
// by name with its unit and time base, the sample counts and the
// output digest.
//
// Build and run it from the repository root:
//
//	bash e2ebench/run.sh --workload shift-bursty --seed 1 --seconds 20 --trace 0
//
// metrics.json lists every metric with its unit, direction, time base
// and layer, the layer-to-end-to-end predictions, and why each workload
// was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// minReps is the fewest timed replays a run makes, however long they
// take.
const minReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spans    string // where the traced run writes its spans (Chrome trace JSON)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: shift-bursty, fleet-agentic or geo-chaos")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every period's arrivals derive from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to measure, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	sp, err := specByName(o.workload)
	if err != nil {
		return err
	}
	cat, err := loadCatalogue()
	if err != nil {
		return err
	}
	var rep *report
	if o.trace == 0 {
		rep, err = measure(sp, o)
	} else {
		o.spans = ".bench_build/spans-" + sp.name + ".json"
		rep, err = measureTraced(sp, o)
	}
	if err != nil {
		return err
	}
	kind := "end_to_end"
	if o.trace == 1 {
		kind = "per_layer"
	}
	return rep.write(stdout, cat, kind)
}

// report is one run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	notes     []string
	values    map[string]float64
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed replay.
func (r *report) fail(err error) {
	r.failed++
	r.note("FAILED: %v", err)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints every metric of the catalogue's kind, one per line with
// its unit and time base, then the result line.
func (r *report) write(w io.Writer, cat *catalogue, kind string) error {
	out := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range cat.Metrics {
		if m.Kind != kind {
			continue
		}
		v, ok := r.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		fmt.Fprintf(w, "%-32s %14.6g %-8s [%s]\n", m.Name, v, m.Unit, m.TimeBase)
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianDuration returns the median of ds (0 when empty).
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
