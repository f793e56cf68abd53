// Command perfbench is Jiffy's end-to-end benchmark. It drives one of
// four seeded workloads against an in-process cluster through one
// client and prints every figure by name, with its unit and sample
// count, then a one-line JSON summary:
//
//	perfbench --workload kv-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end figures; --trace 1 runs a separate
// traced measurement and reports the per-layer figures and each
// layer's self time. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: mr-wordcount, stream-wordcount, kv-zipf or prefix-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer figures from a traced run, 0 end-to-end figures")
	flag.StringVar(&o.out, "out", "", "directory a traced run writes its spans to")
	flag.Parse()
	o.trace = traceFlag == 1
	o.scale, o.setups, o.probeN, o.strict = 1, 5, 20000, true

	w, err := newWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// One P per unit of work in flight: a single-caller workload's RPC
	// hand-offs then never wait for another vCPU to wake, which on a
	// shared VM varies by tens of percent from minute to minute.
	runtime.GOMAXPROCS(min(w.shape().callers, runtime.NumCPU()))
	fmt.Printf("workload %s seed %d seconds %g trace %d nproc %d GOMAXPROCS %d %s\n",
		o.workload, o.seed, o.seconds, traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := run(context.Background(), w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, group := range [][]Metric{res.metrics, res.report} {
		for _, m := range group {
			fmt.Printf("%-36s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	summary, err := summarize(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(summary)
	if !res.correct {
		os.Exit(2)
	}
}

// summarize renders the one-line JSON result.
func summarize(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		if !validName(m.Name) {
			return "", fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	return string(b), err
}
