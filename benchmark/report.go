package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one catalogue entry; BENCHMARK.json lists the same names,
// units and directions (catalogue_test.go keeps the two in step).
type metricDef struct {
	unit   string
	better string // "lower" or "higher"
	// bound is the end-to-end regression bound; 0 marks a per-layer metric.
	bound float64
}

// endToEnd lists the gated metrics in print order.
var endToEnd = []string{"setup_s", "query_qps", "query_p50_ms", "server_rss_mb"}

// catalogue is every metric the benchmark reports.
var catalogue = map[string]metricDef{
	"setup_s":       {unit: "s", better: "lower", bound: 0.25},
	"query_qps":     {unit: "1/s", better: "higher", bound: 0.25},
	"query_p50_ms":  {unit: "ms", better: "lower", bound: 0.25},
	"server_rss_mb": {unit: "MB", better: "lower", bound: 0.10},

	"client.query_p99_ms":      {unit: "ms", better: "lower"},
	"client.ingest_ops_per_s":  {unit: "1/s", better: "higher"},
	"client.ingest_ack_p50_ms": {unit: "ms", better: "lower"},
	"client.ingest_ack_p99_ms": {unit: "ms", better: "lower"},
	"client.error_rate":        {unit: "ratio", better: "lower"},
	"client.sched_lag_p99_ms":  {unit: "ms", better: "lower"},
	"client.samples":           {unit: "count", better: "higher"},

	"wire.decode_ns":     {unit: "ns", better: "lower"},
	"wire.encode_ns":     {unit: "ns", better: "lower"},
	"wire.encode_allocs": {unit: "count", better: "lower"},
	"wire.resp_bytes":    {unit: "B", better: "lower"},

	"server.handler_ns":        {unit: "ns", better: "lower"},
	"server.handler_p50_ns":    {unit: "ns", better: "lower"},
	"server.handler_json_ns":   {unit: "ns", better: "lower"},
	"server.handler_allocs":    {unit: "count", better: "lower"},
	"server.self_ns":           {unit: "ns", better: "lower"},
	"server.queue_wait_p50_us": {unit: "us", better: "lower"},
	"server.rejected":          {unit: "count", better: "lower"},
	"server.timeouts":          {unit: "count", better: "lower"},
	"server.batch_join_ratio":  {unit: "ratio", better: "higher"},
	"net.overhead_us":          {unit: "us", better: "lower"},

	"core.query_ns":          {unit: "ns", better: "lower"},
	"core.query_allocs":      {unit: "count", better: "lower"},
	"core.results_per_query": {unit: "count", better: "higher"},
	"invidx.self_ns":         {unit: "ns", better: "lower"},
	"pdrtree.self_ns":        {unit: "ns", better: "lower"},

	"invidx.probes_per_query":        {unit: "count", better: "lower"},
	"invidx.list_advances_per_query": {unit: "count", better: "lower"},
	"invidx.useful_probe_ratio":      {unit: "ratio", better: "higher"},
	"invidx.entries_per_query":       {unit: "count", better: "lower"},
	"invidx.useful_entry_ratio":      {unit: "ratio", better: "higher"},
	"pdrtree.nodes_per_query":        {unit: "count", better: "lower"},
	"pdrtree.pruned_ratio":           {unit: "ratio", better: "higher"},
	"btree.node_visits_per_query":    {unit: "count", better: "lower"},
	"tuplestore.get_ns":              {unit: "ns", better: "lower"},

	"pager.fetch_ns":            {unit: "ns", better: "lower"},
	"pager.fetches_per_query":   {unit: "count", better: "lower"},
	"pager.reads_per_query":     {unit: "count", better: "lower"},
	"pager.hit_rate":            {unit: "ratio", better: "higher"},
	"pager.evictions_per_query": {unit: "count", better: "lower"},
	"pager.paper_ios_per_query": {unit: "count", better: "lower"},

	"dcache.hit_rate":            {unit: "ratio", better: "higher"},
	"dcache.evictions_per_query": {unit: "count", better: "lower"},
	"dcache.bytes":               {unit: "B", better: "lower"},

	"core.overlay_ns":       {unit: "ns", better: "lower"},
	"core.overlay_len":      {unit: "count", better: "lower"},
	"core.apply_ns_per_op":  {unit: "ns", better: "lower"},
	"core.checkpoint_s":     {unit: "s", better: "lower"},
	"core.checkpoint_bytes": {unit: "B", better: "lower"},
	"core.recover_s":        {unit: "s", better: "lower"},
	"core.checkpoints":      {unit: "count", better: "higher"},

	"wal.append_ns_per_op":    {unit: "ns", better: "lower"},
	"wal.sync_p50_us":         {unit: "us", better: "lower"},
	"wal.sync_p99_us":         {unit: "us", better: "lower"},
	"wal.fsyncs":              {unit: "count", better: "lower"},
	"wal.ops_per_fsync":       {unit: "count", better: "higher"},
	"wal.bytes_per_user_byte": {unit: "ratio", better: "lower"},
	"storage.write_amp":       {unit: "ratio", better: "lower"},

	"core.build_s":                      {unit: "s", better: "lower"},
	"core.load_s":                       {unit: "s", better: "lower"},
	"core.snapshot_bytes_per_user_byte": {unit: "ratio", better: "lower"},

	"runtime.cpu_ms_per_req":    {unit: "ms", better: "lower"},
	"runtime.gc_pause_total_ms": {unit: "ms", better: "lower"},
	"runtime.heap_mb":           {unit: "MB", better: "lower"},

	"trace.overhead_ratio":     {unit: "ratio", better: "lower"},
	"trace.unattributed_ratio": {unit: "ratio", better: "lower"},
	"trace.share_server":       {unit: "ratio", better: "lower"},
	"trace.share_invidx":       {unit: "ratio", better: "lower"},
	"trace.share_pdrtree":      {unit: "ratio", better: "lower"},
	"trace.share_pager":        {unit: "ratio", better: "lower"},
	"trace.share_overlay":      {unit: "ratio", better: "lower"},
}

// exactCounts must repeat bit for bit between two sets at one seed.
var exactCounts = []string{"pager.paper_ios_per_query", "core.results_per_query", "wire.resp_bytes"}

// perLayer lists the per-layer metric names, sorted.
func perLayer() []string {
	var names []string
	for name, def := range catalogue {
		if def.bound == 0 { //ucatlint:ignore floatcmp bound is a literal in the catalogue, never computed
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// fill gives every listed metric the run did not measure — a layer the
// workload does not use — an explicit zero, so each run prints the whole
// list.
func (o *outcome) fill(names []string) {
	for _, name := range names {
		if _, ok := o.metrics[name]; !ok {
			o.set(name, 0)
		}
	}
}

// printLines writes the run as "workload metric value unit" lines.
func (o *outcome) printLines(w io.Writer, names []string) {
	for _, name := range names {
		if m, ok := o.metrics[name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", o.workload, name, formatValue(m.value), m.unit)
		}
	}
	for _, s := range o.info {
		fmt.Fprintf(w, "# %s: %s\n", o.workload, s)
	}
	for _, s := range o.problems {
		fmt.Fprintf(w, "# %s: FAIL: %s\n", o.workload, s)
	}
	for _, s := range o.unmet {
		fmt.Fprintf(w, "# %s: INVARIANT: %s\n", o.workload, s)
	}
}

// formatValue prints a measurement with all its digits.
func formatValue(v float64) string {
	b, err := json.Marshal(v)
	if err != nil { // NaN or Inf: never a valid measurement
		return "0"
	}
	return string(b)
}

// contractLine is the one-line JSON result the benchmark contract asks for as
// the last line of standard output.
func (o *outcome) contractLine(names []string) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]mv, len(names)),
	}
	for _, name := range names {
		m := o.metrics[name]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		doc.Metrics[name] = mv{m.value, m.unit}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // only finite floats, strings and ints: cannot fail
	}
	return string(b)
}

// compareSets prints, for two sets of runs of the same code, both values of
// every end-to-end metric with their relative difference and a verdict
// against the metric's bound, and checks that exact counts are identical.
// It returns the number of failures.
func compareSets(w io.Writer, first, second map[string]*outcome) int {
	fails := 0
	for _, wl := range workloads {
		a, b := first[wl.name], second[wl.name]
		if a == nil || b == nil {
			continue
		}
		for _, name := range endToEnd {
			def := catalogue[name]
			va, vb := a.metrics[name].value, b.metrics[name].value
			diff := ratio(math.Abs(vb-va), va)
			verdict := "PASS"
			if diff > def.bound {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(w, "repeat %s %s %s %s diff=%.4f bound=%.2f %s\n",
				wl.name, name, formatValue(va), formatValue(vb), diff, def.bound, verdict)
		}
		for _, name := range exactCounts {
			va, vb := a.metrics[name].value, b.metrics[name].value
			verdict := "PASS"
			if math.Float64bits(va) != math.Float64bits(vb) {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(w, "repeat %s %s %s %s exact %s\n", wl.name, name, formatValue(va), formatValue(vb), verdict)
		}
	}
	return fails
}
