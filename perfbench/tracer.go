package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"risc1/internal/bench"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one operation share req.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int   // index of the enclosing span, -1 for an operation's root
	req        int
	tid        int // 1: the driving goroutine; 2: a pool worker
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer records nothing, so untraced runs call the same code.
type tracer struct {
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span on the driving goroutine and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, req: req, tid: 1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].end = t.now()
	}
}

// add records a finished span measured elsewhere (on a pool worker) from
// wall-clock instants, and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, req, tid int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: start.Sub(t.epoch).Nanoseconds(),
		end: end.Sub(t.epoch).Nanoseconds(), parent: parent, req: req, tid: tid})
	return len(t.spans) - 1
}

// count adds v to a named counter kept at the same boundary as a span.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// spanStat aggregates every span of one name.
type spanStat struct {
	n          int
	total, own int64 // ns; own excludes time covered by child spans
}

// stats aggregates spans by name, with self time: a span's duration minus
// the part of it its child spans cover.
func (t *tracer) stats() map[string]*spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*spanStat{}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.n++
		st.total += d
		st.own += d - child[i]
	}
	return out
}

// meanUS is the mean duration of the spans named name, in µs; 0 when the
// workload never reached that layer.
func meanUS(st map[string]*spanStat, name string) float64 {
	s := st[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events in µs), which Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, "\n{\"name\":%s,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%d}}",
			name, layerOf(s.name), s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.req, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf is the layer a span name belongs to: its first dotted element.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// summary renders self time per layer and per span name, the traced
// run's per-layer metrics, and the tracing overhead.
func (t *tracer) summary(st map[string]*spanStat, metrics []metricValue, overhead string) string {
	var b strings.Builder
	layers := map[string]int64{}
	var all int64
	for name, s := range st {
		layers[layerOf(name)] += s.own
		all += s.own
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(&b, "self time per layer (%d spans)\n", len(t.spans))
	for _, l := range names {
		fmt.Fprintf(&b, "  %-10s %10.3f ms  %5.1f%%\n", l, float64(layers[l])/1e6, 100*float64(layers[l])/float64(max(all, 1)))
	}
	spanNames := make([]string, 0, len(st))
	for n := range st {
		spanNames = append(spanNames, n)
	}
	sort.Strings(spanNames)
	fmt.Fprintf(&b, "spans\n  %-28s %8s %12s %12s\n", "name", "count", "mean us", "self ms")
	for _, n := range spanNames {
		s := st[n]
		fmt.Fprintf(&b, "  %-28s %8d %12.3f %12.3f\n", n, s.n, float64(s.total)/float64(s.n)/1e3, float64(s.own)/1e6)
	}
	fmt.Fprintf(&b, "per-layer metrics\n")
	for _, m := range metrics {
		fmt.Fprintf(&b, "  %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(&b, "tracing overhead: %s\n", overhead)
	return b.String()
}

// layerMetrics derives the per-layer metrics from the spans and the
// counters kept beside them. A layer the workload never reaches reads 0:
// interp has no cache, HTTP or pool, and serve-hot compiles and runs
// nothing in its timed replay.
func layerMetrics(t *tracer, st map[string]*spanStat) map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	for _, name := range machineNames {
		l := layers[name]
		m[l+".ns_per_instr"] = ratio(t.counts[l+".ns"], t.counts[l+".instr"])
		m[l+".allocs_per_kinstr"] = ratio(1000*t.counts[l+".mallocs"], t.counts[l+".instr"])
		for _, w := range bench.Suite(bench.Small()) {
			m[l+".ns_per_instr."+w.Name] = ratio(t.counts[l+".ns."+w.Name], t.counts[l+".instr."+w.Name])
		}
		m["mem.restore_us."+name] = meanUS(st, "mem.restore."+name)
		if st["cc.compile."+name] != nil {
			m["cc.backend_us."+name] = meanUS(st, "cc.compile."+name) - meanUS(st, "cc.frontend")
		} else {
			m["cc.backend_us."+name] = 0
		}
	}
	hits, misses := t.counts["cpu.icache_hits"], t.counts["cpu.icache_misses"]
	m["cpu.icache_hit_ratio"] = ratio(hits, hits+misses)
	m["cc.frontend_us"] = meanUS(st, "cc.frontend")
	m["exec.image_us"] = meanUS(st, "exec.image")
	m["exec.run_us"] = meanUS(st, "exec.run")
	m["exec.queue_wait_us"] = meanUS(st, "exec.queue_wait")
	m["rcache.key_us"] = meanUS(st, "rcache.key")
	m["rcache.lookup_us"] = meanUS(st, "rcache.lookup")
	m["obs.encode_us"] = meanUS(st, "obs.build_report") + meanUS(st, "obs.json")
	for _, k := range []string{"rcache.hit_ratio", "progcache.hit_ratio", "imgcache.hit_ratio", "rcache.evictions",
		"serve.server_us", "serve.transport_us", "serve.p99_ms"} {
		m[k] = 0 // set from the server's counters by the serve workloads
	}
	return m
}
