// Command perfbench is the repository's benchmark: one command that runs
// a workload, checks every output against a value computed apart from
// the simulators, and prints every metric named in BENCHMARK.json by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"rps": {"value": 4012.7, "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end_to_end list; with
// -trace 1 the same inputs are replayed through the layers' public
// functions with spans kept in memory, and the metrics are its per_layer
// list. -steady N runs a workload as two sets of N runs and prints
// whether they agree within the bounds. See README.md.
//
//	bash perfbench/run.sh --workload interp --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

// spec is BENCHMARK.json: the workloads and the metrics, with units and
// bounds. The benchmark prints exactly the metrics it lists.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// outcome is one run: the operations attempted and failed and the
// metrics measured. A traced run carries its tracer instead of finished
// per-layer metrics; emit derives them.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64

	tracer   *tracer
	overhead string // traced runs: traced against untraced time
}

type metricValue struct {
	name, unit string
	value      float64
}

// config is what the workloads need from the command line.
type config struct {
	seed     int64
	seconds  time.Duration
	serveBin string
	out      string // directory for trace files
}

// cpuEnv marks a benchmark process that pin has already placed on a CPU.
const cpuEnv = "PERFBENCH_CPU"

// pin re-executes the benchmark under taskset on the first CPU it may
// use; the server it starts inherits that CPU. Each Go process then sizes
// GOMAXPROCS to the one CPU. Client and server share it on purpose: each
// request hands the CPU from one to the other and back, so the CPU never
// idles. On two CPUs every hand-off woke an idle virtual CPU, and the
// hypervisor charged the wait as steal: in alternating runs on a 2-vCPU
// virtual machine, steal took 20–26% of the CPUs with client and server
// apart against 2–3% with them together, and serve-cold served 960
// against 1416 replies/s. Without taskset the benchmark runs unpinned and
// says so.
func pin() {
	if os.Getenv(cpuEnv) != "" {
		return
	}
	cpu, err := firstCPU()
	taskset, lerr := osexec.LookPath("taskset")
	self, serr := os.Executable()
	if err != nil || lerr != nil || serr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: running unpinned (needs taskset)")
		return
	}
	err = syscall.Exec(taskset, append([]string{"taskset", "-c", cpu, self}, os.Args[1:]...), append(os.Environ(), cpuEnv+"="+cpu))
	fmt.Fprintln(os.Stderr, "perfbench: running unpinned:", err)
}

// firstCPU is the first CPU this process may run on, from /proc.
func firstCPU() (string, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if list, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			first, _, _ := strings.Cut(strings.TrimSpace(list), ",")
			first, _, _ = strings.Cut(first, "-")
			if _, err := strconv.Atoi(first); err != nil {
				return "", fmt.Errorf("Cpus_allowed_list %q", list)
			}
			return first, nil
		}
	}
	return "", os.ErrNotExist
}

func main() {
	pin()
	workload := flag.String("workload", "", "interp, serve-hot or serve-cold")
	seed := flag.Int64("seed", 1, "input seed: the corpus seed on serve-hot, the fresh-program seed on serve-cold, the progen programs riding along interp")
	seconds := flag.Float64("seconds", 30, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1: replay the inputs through the layers with spans and print the per-layer metrics")
	steady := flag.Int("steady", 0, "run the workload as two sets of this many runs and print whether they agree")
	root := flag.String("root", ".", "checkout root, holding BENCHMARK.json")
	serveBin := flag.String("serve-bin", ".bench_build/risc1-serve", "risc1-serve binary built from this checkout")
	out := flag.String("out", ".bench_build", "directory for trace files")
	flag.Parse()

	sp, err := loadSpec(*root)
	if err != nil {
		fail(err)
	}
	if *steady > 0 {
		pass := []string{"-root", *root, "-serve-bin", *serveBin, "-out", *out}
		if err := runSteady(sp, *workload, *steady, *seed, *seconds, os.Args[0], pass); err != nil {
			fail(err)
		}
		return
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), serveBin: *serveBin, out: *out}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	traced := *traceFlag == 1
	var o *outcome
	switch *workload {
	case "interp":
		o, err = runInterp(cfg.seed, cfg.seconds, traced)
	case "serve-hot", "serve-cold":
		o, err = runServe(*workload == "serve-hot", cfg, traced)
	default:
		err = fmt.Errorf("unknown workload %q (interp, serve-hot, serve-cold)", *workload)
	}
	if err != nil {
		fail(err)
	}
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
		if err := o.finishTrace(*workload, cfg.out, list); err != nil {
			fail(err)
		}
	}
	if err := emit(os.Stdout, o, list); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// finishTrace derives the per-layer metrics from the spans, then writes
// the Chrome trace and the self-time summary next to each other.
func (o *outcome) finishTrace(workload, dir string, list []metricSpec) error {
	st := o.tracer.stats()
	for k, v := range layerMetrics(o.tracer, st) {
		if _, ok := o.metrics[k]; !ok {
			o.metrics[k] = v
		}
	}
	var vals []metricValue
	for _, m := range list {
		vals = append(vals, metricValue{m.Name, m.Unit, o.metrics[m.Name]})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, "trace-"+workload)
	if err := o.tracer.writeChrome(base + ".json"); err != nil {
		return err
	}
	sum := o.tracer.summary(st, vals, o.overhead)
	if err := os.WriteFile(base+"-summary.txt", []byte(sum), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s.json, %s-summary.txt\ntracing overhead: %s\n", base, base, o.overhead)
	return nil
}

// overhead compares the time per unit of work of an untraced and a traced
// stretch of the same inputs.
func overhead(elA time.Duration, nA int, elB time.Duration, nB int, unit string) string {
	a := elA.Seconds() / float64(nA)
	b := elB.Seconds() / float64(nB)
	return fmt.Sprintf("%+.1f%% (%.3f ms per %s untraced over %d, %.3f ms traced over %d)",
		100*(b/a-1), a*1e3, unit, nA, b*1e3, nB)
}

// emit prints every listed metric by name with its unit, then the result
// line. A listed metric the run did not measure is an error, not a zero.
func emit(w *os.File, o *outcome, list []metricSpec) error {
	var parts []string
	for _, m := range list {
		v, ok := o.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.Name, v, m.Unit)
		parts = append(parts, fmt.Sprintf("%q: {\"value\": %s, \"unit\": %q}", m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit))
	}
	if o.attempted < 1 {
		return errors.New("no operation attempted")
	}
	fmt.Fprintf(w, "{\"correct\": %t, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
		o.correct, o.attempted, o.failed, strings.Join(parts, ", "))
	return nil
}
