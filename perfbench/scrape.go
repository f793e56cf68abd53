package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"time"

	"jiffy"
	"jiffy/internal/obs"
)

// counters is a flat set of scraped readings keyed by series name, as
// the Prometheus exposition renders it (`name{labels}`), plus the Go
// runtime readings under their runtime/metrics names.
type counters map[string]float64

// scrapeOf renders a registry and parses it back.
func scrapeOf(r *obs.Registry) counters {
	var b bytes.Buffer
	r.WritePrometheus(&b)
	return counters(obs.ParsePrometheus(b.Bytes()))
}

// goSamples are the process readings the go.* metrics are built from.
var goSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snapshot is one scrape of every component's public registry: the
// client, the memory servers (summed) and the controller, plus the Go
// runtime.
type snapshot struct {
	at                   time.Time
	client, server, ctrl counters
}

// scrape reads the registries of c and every component of cl.
func scrape(cl *jiffy.Cluster, c *jiffy.Client) snapshot {
	s := snapshot{at: time.Now(), client: scrapeOf(c.Obs()), server: counters{}, ctrl: scrapeOf(cl.Controller.Obs())}
	for _, srv := range cl.Servers {
		for k, v := range scrapeOf(srv.Obs()) {
			s.server[k] += v
		}
	}
	rs := make([]metrics.Sample, len(goSamples))
	for i, name := range goSamples {
		rs[i].Name = name
	}
	metrics.Read(rs)
	for _, r := range rs {
		switch r.Value.Kind() {
		case metrics.KindUint64:
			s.client[r.Name] = float64(r.Value.Uint64())
		case metrics.KindFloat64:
			s.client[r.Name] = r.Value.Float64()
		}
	}
	return s
}

// delta is what happened between two snapshots.
type delta struct {
	wall                 time.Duration
	client, server, ctrl counters
}

func diff(a, b counters) counters {
	d := counters{}
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

// since returns the change from before to after.
func since(before, after snapshot) delta {
	return delta{
		wall:   after.at.Sub(before.at),
		client: diff(before.client, after.client),
		server: diff(before.server, after.server),
		ctrl:   diff(before.ctrl, after.ctrl),
	}
}

// add accumulates d into acc (traced runs sum their traced slices).
func (acc *delta) add(d delta) {
	acc.wall += d.wall
	for _, pair := range []struct {
		dst *counters
		src counters
	}{
		{&acc.client, d.client}, {&acc.server, d.server}, {&acc.ctrl, d.ctrl},
	} {
		if *pair.dst == nil {
			*pair.dst = counters{}
		}
		for k, v := range pair.src {
			(*pair.dst)[k] += v
		}
	}
}

// rpcKey names one per-method RPC series.
func rpcKey(series, role, method string) string {
	return fmt.Sprintf("jiffy_rpc_%s{role=%q,method=%q}", series, role, method)
}

// rpcStat sums a per-method series over methods: count (calls), sum
// (latency µs), errors, bytes.
type rpcStat struct{ count, sumUs, errors, bytes float64 }

func (c counters) rpc(role string, methods ...string) rpcStat {
	var s rpcStat
	for _, m := range methods {
		s.count += c[rpcKey("latency_usec_count", role, m)]
		s.sumUs += c[rpcKey("latency_usec_sum", role, m)]
		s.errors += c[rpcKey("errors_total", role, m)]
		s.bytes += c[rpcKey("bytes_in_total", role, m)] + c[rpcKey("bytes_out_total", role, m)]
	}
	return s
}

func (s rpcStat) meanUs() float64 { return ratio(s.sumUs, s.count) }

// Method sets, by who originates the call.
var (
	// dataMethods are the data-plane calls a client makes to servers.
	dataMethods = []string{"DataOp", "DataOpBatch", "Subscribe", "Unsubscribe"}
	// ctrlMethods are the control-plane calls a client makes to the
	// controller.
	ctrlMethods = []string{"RegisterJob", "DeregisterJob", "CreatePrefix", "CreateHierarchy",
		"RemovePrefix", "RenewLease", "LeaseInfo", "Open", "ScaleUp", "ScaleDown",
		"ListPrefixes", "ControllerStats", "CtrlRole"}
	// serverMethods is every method a memory server serves.
	serverMethods = []string{"DataOp", "DataOpBatch", "Subscribe", "Unsubscribe", "Replicate",
		"CreateBlock", "DeleteBlock", "SetNext", "MoveSlots", "ExportSlots", "ImportEntries",
		"FlushBlock", "LoadBlock", "ServerStats", "SetOwnedSlots", "SnapshotBlock",
		"RestoreBlock", "UpdateChain", "SetTenantQuota"}
	// controllerMethods is every method the controller serves.
	controllerMethods = append(append([]string{}, ctrlMethods...),
		"RegisterServer", "Heartbeat", "ReportFailure", "ReportTier", "SaveState",
		"DrainServer", "SetQuota", "FlushPrefix", "LoadPrefix")
)
