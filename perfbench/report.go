package main

import (
	"fmt"
	"strings"
	"time"
)

// endToEnd builds the untraced run's figures: the gated ones, which
// every workload reports under the same names (shape says what a unit,
// a write and an item are), and the write tail, which is printed only.
// A p99 of writes a few tens of microseconds long moves by 20-40%
// between runs on a shared VM, more than any bound a gate could use.
func endToEnd(w workload, r *recorder, rates, setups []float64, heapBytes float64) ([]Metric, Metric, []error) {
	sh := w.shape()
	var errs []error
	q := func(name, s string, p float64) Metric {
		m, err := quantileMetric(name, r.get(s), p, "us")
		if err != nil {
			errs = append(errs, err)
		}
		return m
	}
	ms := []Metric{
		{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)},
		{Name: "heap_mb", Value: heapBytes / 1e6, Unit: "MB"},
		q("unit_us_p50", sh.unitSeries, 50),
		q("unit_us_tail", sh.unitSeries, sh.unitTailQ),
		q("write_us_p50", sh.writeSeries, 50),
		{Name: "items_per_s", Value: median(rates), Unit: "1/s", N: len(rates)},
	}
	return ms, q("write_us_tail", sh.writeSeries, sh.writeTailQ), errs
}

// aliases restates the end-to-end figures under the per-workload names
// the paper's evaluation uses, for the printed report.
func aliases(workload string, ms []Metric, r *recorder) []Metric {
	get := func(name string) Metric {
		for _, m := range ms {
			if m.Name == name {
				return m
			}
		}
		return Metric{}
	}
	as := func(name, from, unit string) Metric {
		m := get(from)
		m.Name = name
		if m.Unit == "us" && unit == "ms" {
			m.Value /= 1e3
		}
		m.Unit = unit
		return m
	}
	failed := Metric{Name: "failed_ratio", Value: ratio(float64(r.failed.Load()), float64(r.attempted.Load())),
		Unit: "ratio", N: int(r.attempted.Load())}
	switch workload {
	case "mr-wordcount", "stream-wordcount":
		return []Metric{as("jct_ms_p50", "unit_us_p50", "ms"), as("jct_ms_p90", "unit_us_tail", "ms"),
			as("records_per_s", "items_per_s", "1/s"), failed}
	case "kv-zipf":
		return []Metric{as("get_us_p50", "unit_us_p50", "us"), as("get_us_p99", "unit_us_tail", "us"),
			as("put_us_p50", "write_us_p50", "us"), as("put_us_p99", "write_us_tail", "us"),
			as("ops_per_s", "items_per_s", "1/s"), failed}
	default:
		return []Metric{as("lifecycle_us_p50", "unit_us_p50", "us"), as("lifecycle_us_p99", "unit_us_tail", "us"),
			as("lifecycles_per_s", "items_per_s", "1/s"), failed}
	}
}

// layerInputs is everything a traced run gathered.
type layerInputs struct {
	w         workload
	e         *env
	traced    *recorder
	plain     *recorder
	d         delta         // registry and runtime deltas over the traced slices
	plainWall time.Duration // wall time of the untraced slices
	spans     *spanLog
	probes    probes
	peak      int64 // most blocks allocated at once
}

// layerMetrics builds the traced run's per-layer figures: the ones
// every workload reports (first result), the workload's own and those
// that only some workloads exercise (second), and the self-time table
// (third).
func layerMetrics(in layerInputs) ([]Metric, []Metric, []string) {
	d, r := in.d, in.traced
	items := float64(r.items.Load())
	units := float64(r.units.Load())
	wallUs := float64(d.wall.Microseconds())

	cData := d.client.rpc("client", dataMethods...)
	cCtrl := d.client.rpc("client", ctrlMethods...)
	cAll := d.client.rpc("client", append(append([]string{}, dataMethods...), ctrlMethods...)...)
	sData := d.server.rpc("server", dataMethods...)
	sRepl := d.server.rpc("server", "Replicate")
	sAll := d.server.rpc("server", serverMethods...)
	kCtrl := d.ctrl.rpc("controller", ctrlMethods...)
	kAll := d.ctrl.rpc("controller", controllerMethods...)
	storeOps := d.server["jiffy_store_ops_total"]
	nServers := float64(len(in.e.cl.Servers))

	// The time the units spent with an RPC in flight, split across the
	// layers below the client by the registries' busy time: server-side
	// handler time (less the chain forward and the blockstore estimate
	// nested in it), the successor's replicate handling, the
	// controller's handler time, and the rest — the RPC stack itself.
	st := in.spans.selfTimes()
	storeUs := storeOps * in.w.storeNs(in.probes) / 1e3
	shares := map[string]float64{
		"server":     max(0, sData.sumUs-sRepl.sumUs-storeUs),
		"chain":      sRepl.sumUs,
		"controller": kCtrl.sumUs,
		"blockstore": storeUs,
	}
	below := 0.0
	for _, v := range shares {
		below += v
	}
	shares["rpc"] = max(0, cAll.sumUs-below)
	total := below + shares["rpc"]
	perUnit := func(x time.Duration) float64 { return ratio(float64(x.Microseconds()), float64(st.units)) }
	rpcPart := func(layer string) float64 { return perUnit(st.rpc) * ratio(shares[layer], total) }

	goPer := func(key string) float64 { return ratio(d.client[key], items) }
	gcFrac := ratio(d.client["/cpu/classes/gc/total:cpu-seconds"], d.client["/cpu/classes/total:cpu-seconds"])
	plainRate := ratio(float64(in.plain.items.Load()), in.plainWall.Seconds())
	tracedRate := ratio(items, d.wall.Seconds())
	attempted := float64(r.attempted.Load() + in.plain.attempted.Load())
	failed := float64(r.failed.Load() + in.plain.failed.Load())

	n := int(items)
	common := []Metric{
		{"client.dataop_us_mean", cData.meanUs(), "us", int(cData.count)},
		{"client.dataop_rpcs_per_op", ratio(cData.count, items), "count", n},
		{"client.ctrl_rpcs_per_op", ratio(cCtrl.count, items), "count", n},
		{"client.retries", d.client[`jiffy_rpc_retries_total{role="client"}`], "count", 0},
		{"client.map_refreshes", d.client["jiffy_client_map_refreshes_total"], "count", 0},
		{"client.stale_regroups", d.client["jiffy_client_stale_regroups_total"], "count", 0},
		{"client.redirects", d.client[`jiffy_rpc_redirects_total{role="client"}`], "count", 0},
		{"rpc.dataop_stack_us_mean", cData.meanUs() - sData.meanUs(), "us", int(cData.count)},
		{"rpc.bytes_per_op", ratio(cAll.bytes, items), "bytes", n},
		{"rpc.errors", cAll.errors, "count", int(cAll.count)},
		{"server.dataop_us_mean", sData.meanUs(), "us", int(sData.count)},
		{"server.replicate_rpcs_per_op", ratio(sRepl.count, items), "count", n},
		{"server.busy_share", ratio(sAll.sumUs, wallUs*nServers), "share", int(sAll.count)},
		{"blockstore.kv_put_ns", in.probes.kvPutNs, "ns", probeRounds},
		{"blockstore.kv_get_ns", in.probes.kvGetNs, "ns", probeRounds},
		{"blockstore.file_append_ns", in.probes.fileAppendNs, "ns", probeRounds},
		{"blockstore.queue_enqdeq_ns", in.probes.queueEnqDeqNs, "ns", probeRounds},
		{"blockstore.ops_per_op", ratio(storeOps, items), "count", n},
		{"controller.busy_share", ratio(kAll.sumUs, wallUs), "share", int(kAll.count)},
		{"controller.scale_ups_per_unit", ratio(d.ctrl["jiffy_ctrl_scale_ups_total"], units), "count", int(units)},
		{"controller.blocks_peak", float64(in.peak), "count", 0},
		{"hierarchy.create_renew_remove_ns", in.probes.hierarchyNs, "ns", probeRounds},
		{"alloc.allocate_free_ns", in.probes.allocNs, "ns", probeRounds},
		{"go.allocs_per_op", goPer("/gc/heap/allocs:objects"), "count", n},
		{"go.alloc_bytes_per_op", goPer("/gc/heap/allocs:bytes"), "bytes", n},
		{"go.gc_cycles_per_s", ratio(d.client["/gc/cycles/total:gc-cycles"], d.wall.Seconds()), "1/s", 0},
		{"go.gc_cpu_fraction", gcFrac, "share", 0},
		{"trace.overhead", ratio(tracedRate, plainRate), "ratio", n},
		{"failed_ratio", ratio(failed, attempted), "ratio", int(attempted)},
		{"self.app_us", perUnit(st.bench + st.runtime + st.user + st.client), "us", st.units},
		{"self.rpc_us", rpcPart("rpc"), "us", st.units},
		{"self.server_us", rpcPart("server"), "us", st.units},
		{"self.blockstore_us", rpcPart("blockstore"), "us", st.units},
	}

	extra := []Metric{
		{"client.ctrl_us_mean", cCtrl.meanUs(), "us", int(cCtrl.count)},
		{"rpc.ctrl_stack_us_mean", cCtrl.meanUs() - kCtrl.meanUs(), "us", int(cCtrl.count)},
		{"server.replicate_us_mean", sRepl.meanUs(), "us", int(sRepl.count)},
	}
	for _, m := range []string{"CreatePrefix", "Open", "RenewLease", "RemovePrefix", "RegisterJob", "DeregisterJob", "ScaleUp"} {
		s := d.ctrl.rpc("controller", m)
		extra = append(extra, Metric{"controller." + snake(m) + "_us_mean", s.meanUs(), "us", int(s.count)})
	}
	if _, ok := in.w.(*streamWordcount); ok {
		// Enqueue, dequeue and the consumer's Put: 3 is ideal; the rest
		// are empty dequeues and control calls.
		extra = append(extra, Metric{"dataflow.rpcs_per_item", ratio(cAll.count, items), "count", n})
	}
	extra = append(extra, in.w.layers(r, in.e)...)
	kept, dropped := in.spans.counts()
	extra = append(extra,
		Metric{"trace.spans", float64(kept), "count", 0},
		Metric{"trace.spans_dropped", float64(dropped), "count", 0})

	// Self time per unit along the blocking path, next to the unit time
	// measured without tracing.
	sh := in.w.shape()
	var plainUnits series
	for _, s := range sh.spanSeries {
		plainUnits = append(plainUnits, in.plain.get(s)...)
	}
	var plainMean float64
	for _, x := range plainUnits {
		plainMean += float64(x)
	}
	plainMean = ratio(plainMean, float64(len(plainUnits))) / 1e3
	table := []string{
		fmt.Sprintf("self time per %s (us), traced, over %d units; untraced mean %.1f us (n=%d)",
			sh.unitName, st.units, plainMean, len(plainUnits)),
	}
	rows := []struct {
		layer string
		us    float64
	}{
		{"bench", perUnit(st.bench)},
		{"runtime", perUnit(st.runtime)},
		{"user", perUnit(st.user)},
		{"client", perUnit(st.client)},
		{"rpc", rpcPart("rpc")},
		{"server", rpcPart("server")},
		{"chain", rpcPart("chain")},
		{"controller", rpcPart("controller")},
		{"blockstore", rpcPart("blockstore")},
		{"total", perUnit(st.unit)},
	}
	for _, row := range rows {
		table = append(table, fmt.Sprintf("  %-10s %12.2f", row.layer, row.us))
	}
	return common, extra, table
}

// snake turns a method name into a metric-name component
// ("RenewLease" -> "renew_lease").
func snake(s string) string {
	var b strings.Builder
	for i, c := range s {
		if c >= 'A' && c <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteRune(c)
	}
	return b.String()
}
