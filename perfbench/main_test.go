package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make(series, 100)
	for i := range s {
		s[i] = int64(100 - i) // reversed: percentile must sort
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{50, 50}, {1, 1}, {89.5, 90}} {
		got, err := percentile(s, c.q)
		if err != nil || got != c.want {
			t.Errorf("p%g = %d, %v; want %d", c.q, got, err, c.want)
		}
	}
}

func TestPercentileTailNeedsTenBeyond(t *testing.T) {
	mk := func(n int) series {
		s := make(series, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	// p90 of 100 samples is rank 90: exactly 10 lie beyond it.
	if _, err := percentile(mk(100), 90); err != nil {
		t.Errorf("p90 of 100: %v", err)
	}
	// p90 of 99 is rank 90 too, with 9 beyond.
	if _, err := percentile(mk(99), 90); err == nil {
		t.Error("p90 of 99 samples should lack samples beyond it")
	}
	if _, err := percentile(mk(1000), 99); err != nil {
		t.Errorf("p99 of 1000: %v", err)
	}
	if _, err := percentile(mk(999), 99); err == nil {
		t.Error("p99 of 999 samples should lack samples beyond it")
	}
	// A median needs nothing beyond it.
	if v, err := percentile(mk(3), 50); err != nil || v != 1 {
		t.Errorf("p50 of 3 = %d, %v", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples should fail")
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]int64{{10, 20}, {0, 5}, {15, 30}, {40, 40}, {29, 31}}
	if got := unionLen(iv); got != 5+21 {
		t.Errorf("unionLen = %d, want 26", got)
	}
}

func TestWindowRates(t *testing.T) {
	at := func(i int) time.Time { return time.Unix(0, 0).Add(time.Duration(i) * 100 * time.Millisecond) }
	var ps []progress
	for i := 0; i <= 40; i++ {
		ps = append(ps, progress{at: at(i), units: int64(i * 50), items: int64(i * 500)})
	}
	// 2000 units make 20 windows of 100; every one runs at 5000 items/s.
	rates := windowRates(ps)
	if len(rates) != maxRateWindows {
		t.Fatalf("%d windows, want %d", len(rates), maxRateWindows)
	}
	for i, r := range rates {
		if r < 4999.999 || r > 5000.001 {
			t.Errorf("window %d rate %v, want 5000", i, r)
		}
	}
	// 250 units make only 2 windows of at least 100 units.
	for i := range ps {
		ps[i].units /= 8
	}
	if n := len(windowRates(ps)); n != 2 {
		t.Errorf("%d windows for 250 units, want 2", n)
	}
	if windowRates(ps[:1]) != nil {
		t.Error("one sample should give no windows")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the code must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestMetricNames(t *testing.T) {
	spec := loadSpec(t)
	seen := map[string]bool{}
	for _, group := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		for _, m := range group {
			if !validName(m.Name) {
				t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric name %q used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	for _, bad := range []string{"", "a b", "x{y}", ".lead", "ü"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// paperNames are the figures each workload must report beyond the
// BENCHMARK.json sets: its end-to-end figures under the paper's names,
// untraced, and its own per-layer figures, traced.
var paperNames = map[string][2][]string{
	"mr-wordcount": {
		{"jct_ms_p50", "jct_ms_p90", "records_per_s", "failed_ratio"},
		{"mr.setup_ms", "mr.map_ms", "mr.reduce_ms", "mr.user_fn_ms"},
	},
	"stream-wordcount": {
		{"jct_ms_p50", "jct_ms_p90", "records_per_s", "failed_ratio"},
		{"dataflow.setup_ms", "dataflow.write_us_p50", "dataflow.read_us_p50", "dataflow.read_us_p99",
			"dataflow.drain_ms", "dataflow.rpcs_per_item"},
	},
	"kv-zipf": {
		{"get_us_p50", "get_us_p99", "put_us_p50", "put_us_p99", "ops_per_s", "failed_ratio"},
		{"blockstore.used_bytes_per_user_byte"},
	},
	"prefix-churn": {
		{"lifecycle_us_p50", "lifecycle_us_p99", "lifecycles_per_s", "failed_ratio"},
		{"client.create_prefix_us_p50", "client.open_us_p50", "client.put_us_p50",
			"client.renew_lease_us_p50", "client.remove_prefix_us_p50"},
	},
}

// everyTraced are the traced figures every workload prints beyond the
// BENCHMARK.json set.
var everyTraced = []string{
	"client.ctrl_us_mean", "rpc.ctrl_stack_us_mean", "server.replicate_us_mean",
	"controller.create_prefix_us_mean", "controller.open_us_mean", "controller.renew_lease_us_mean",
	"controller.remove_prefix_us_mean", "controller.register_job_us_mean",
	"controller.deregister_job_us_mean", "controller.scale_up_us_mean",
}

// TestSmoke runs every workload briefly at a small input size, untraced
// and traced, and checks that it passes its output checks, fails no
// operation and reports every figure.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	spec := loadSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				o := options{workload: name, seed: 7, seconds: 1, trace: traced, scale: 0.25, setups: 2, probeN: 500}
				w, err := newWorkload(name, o.seed, o.scale)
				if err != nil {
					t.Fatal(err)
				}
				res, err := run(ctx, w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.correct, res.attempted, res.failed, res.lines)
				}
				got := map[string]bool{}
				units := map[string]string{}
				for _, m := range res.metrics {
					got[m.Name] = true
					units[m.Name] = m.Unit
				}
				for _, m := range res.report {
					got["report:"+m.Name] = true
				}
				want, wantReport := spec.EndToEnd, paperNames[name][0]
				if traced {
					want, wantReport = spec.PerLayer, append(paperNames[name][1], everyTraced...)
				}
				if len(res.metrics) != len(want) {
					t.Errorf("%d metrics in the summary, BENCHMARK.json names %d", len(res.metrics), len(want))
				}
				for _, m := range want {
					if !got[m.Name] {
						t.Errorf("summary lacks %s", m.Name)
					} else if units[m.Name] != m.Unit {
						t.Errorf("%s is in %s, BENCHMARK.json says %s", m.Name, units[m.Name], m.Unit)
					}
				}
				for _, n := range wantReport {
					if !got["report:"+n] {
						t.Errorf("report lacks %s", n)
					}
				}
				if _, err := summarize(res); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
