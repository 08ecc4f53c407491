package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"risc1/internal/bench"
	"risc1/internal/cc"
	"risc1/internal/cc/progen"
	"risc1/internal/machine"
)

// machineNames are the three registry backends every workload spreads its
// programs over, and layers names each one's simulator package, which is
// how the per-layer metrics are named.
var (
	machineNames = []string{"risc1", "cisc", "rv32"}
	layers       = map[string]string{"risc1": "cpu", "cisc": "vax", "rv32": "rv32"}
)

// machineOptions is what every workload compiles and runs with: the
// optimizing front end, delay slots filled on RISC I (other backends
// normalize the knob away), the backend defaults otherwise — the
// options risc1-serve gives a request that sets none.
func machineOptions(b *machine.Backend) machine.Options {
	return b.Normalize(machine.Options{Opt: 1, DelaySlots: true})
}

// program is one guest program with the result the Go reference
// computed, apart from any simulator.
type program struct {
	name   string
	source string
	want   int32
}

// interpPrograms is the interp workload's input: the paper's 12-program
// suite at bench.Default() scale, followed by one seed-drawn progen
// program of each kind, so the inputs follow --seed as the serve
// workloads' do. The three add well under 1% of a pass's guest
// instructions.
func interpPrograms(suite []bench.Workload, seed int64) []program {
	var out []program
	for _, w := range suite {
		out = append(out, program{name: w.Name, source: w.Source, want: w.Expected})
	}
	r := rand.New(rand.NewSource(seed))
	for _, k := range []struct {
		name string
		gen  func(*rand.Rand) (string, int32)
	}{{"progen-expr", progen.ExprProgram}, {"progen-loop", progen.LoopProgram}, {"progen-call", progen.CallProgram}} {
		src, want := k.gen(r)
		out = append(out, program{name: k.name, source: src, want: want})
	}
	return out
}

// interpRun is one (machine, program) pair: the compiled program, its
// warm-start image, and what its runs have accumulated.
type interpRun struct {
	program
	snap machine.Snapshot
	addr uint32

	// First pass's guest counts; every later pass must repeat them.
	instr, cycles uint64
	micros        float64

	runs int
	ns   []float64 // host CPU time inside RunContext, per run
}

type interpMachine struct {
	b     *machine.Backend
	layer string
	m     machine.Machine
	runs  []*interpRun
}

// interpInputs is everything the interp workload's timed loop touches.
type interpInputs struct {
	machines []*interpMachine
	ops      int     // runs made
	rss      float64 // highest resident set (VmRSS) read after a pass, MiB
}

// prepareInterp compiles every program for every machine through the
// registry and captures its image after Reset and load. This is the
// workload's set-up; with a tracer it records each compile as a
// cc.frontend span plus a cc.compile.<machine> span.
func prepareInterp(suite []bench.Workload, seed int64, tr *tracer) (*interpInputs, error) {
	progs := interpPrograms(suite, seed)
	in := &interpInputs{}
	for _, name := range machineNames {
		b, ok := machine.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("machine %s is not registered", name)
		}
		o := machineOptions(b)
		im := &interpMachine{b: b, layer: layers[name], m: b.New(o)}
		for pi, p := range progs {
			if tr != nil {
				s := tr.begin("cc.frontend", -1, pi)
				if _, _, err := cc.Frontend(p.source, o.Opt); err != nil {
					return nil, fmt.Errorf("%s: %w", p.name, err)
				}
				tr.end(s)
			}
			s := tr.begin("cc.compile."+name, -1, pi)
			prog, _, _, err := b.Compile(p.source, o)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", p.name, name, err)
			}
			addr, ok := prog.Symbol("result")
			if !ok {
				return nil, fmt.Errorf("%s: no global named result", p.name)
			}
			im.m.Reset(prog.Entry())
			if err := prog.LoadInto(im.m.Mem()); err != nil {
				return nil, err
			}
			im.runs = append(im.runs, &interpRun{program: p, snap: im.m.Snapshot(), addr: addr})
		}
		in.machines = append(in.machines, im)
	}
	return in, nil
}

// pass runs every program once on every machine, interleaving the
// machines program by program and rotating which goes first, and returns
// how many runs failed their checks.
func (in *interpInputs) pass(k int, tr *tracer) (failed int) {
	n := len(in.machines)
	for pi := range in.machines[0].runs {
		for j := 0; j < n; j++ {
			im := in.machines[(j+k)%n]
			if err := in.run(im, im.runs[pi], tr); err != nil {
				failed++
			}
		}
	}
	return failed
}

// run restores one image and runs it to completion. A run fails when its
// result word differs from the Go reference or its guest instruction and
// cycle counts differ from the first pass's (the determinism property).
func (in *interpInputs) run(im *interpMachine, r *interpRun, tr *tracer) error {
	req := in.ops
	in.ops++
	root := tr.begin("interp.run", -1, req)
	var icBefore [2]uint64
	var ms0 runtime.MemStats
	if tr != nil && im.layer == "cpu" {
		icBefore = icacheCounts(im.m)
	}

	s := tr.begin("mem.restore."+im.b.Name, root, req)
	im.m.Restore(r.snap)
	tr.end(s)
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	t1 := cpuTime()
	s = tr.begin(im.layer+".run", root, req)
	err := im.m.RunContext(context.Background())
	tr.end(s)
	t2 := cpuTime()
	var v uint32
	if err == nil {
		v, err = im.m.Mem().LoadWord(r.addr)
	}

	r.runs++
	r.ns = append(r.ns, float64(t2-t1))
	instr := im.m.Instructions()
	if tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		tr.count(im.layer+".mallocs", float64(ms1.Mallocs-ms0.Mallocs))
		tr.count(im.layer+".instr", float64(instr))
		tr.count(im.layer+".ns", float64(t2-t1))
		tr.count(im.layer+".ns."+r.name, float64(t2-t1))
		tr.count(im.layer+".instr."+r.name, float64(instr))
		if im.layer == "cpu" {
			ic := icacheCounts(im.m)
			tr.count("cpu.icache_hits", float64(ic[0]-icBefore[0]))
			tr.count("cpu.icache_misses", float64(ic[1]-icBefore[1]))
		}
	}
	tr.end(root)

	if err != nil {
		return err
	}
	if err := checkValue(int32(v), r.want); err != nil {
		return err
	}
	if r.runs == 1 {
		r.instr, r.cycles, r.micros = instr, im.m.Cycles(), im.m.Micros()
	} else if instr != r.instr || im.m.Cycles() != r.cycles {
		return fmt.Errorf("%s on %s: %d instructions / %d cycles, first pass %d / %d",
			r.name, im.b.Name, instr, im.m.Cycles(), r.instr, r.cycles)
	}
	return nil
}

// cpuTime is the CPU time the benchmark process has used, all threads and
// the garbage collector included. Interp times its work in CPU time
// because on a shared virtual machine the hypervisor sometimes runs other
// tenants on this CPU for seconds at a time (steal time in /proc/stat),
// and wall time would charge that to the interpreters.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// icacheCounts reads the RISC I predecoded-icache hits and misses from
// the run report before the execution layer would scrub them.
func icacheCounts(m machine.Machine) [2]uint64 {
	rep := m.BuildReport("")
	if rep.ICache == nil {
		return [2]uint64{}
	}
	return [2]uint64{rep.ICache.Hits, rep.ICache.Misses}
}

// loop runs whole passes until d of wall time has passed and returns the
// wall time taken, the passes made and the failed runs.
func (in *interpInputs) loop(d time.Duration, first int, tr *tracer) (el time.Duration, passes, failed int) {
	start := time.Now()
	for k := 0; ; k++ {
		failed += in.pass(first+k, tr)
		if rss, err := statusMiB("self", "VmRSS:"); err == nil {
			in.rss = max(in.rss, rss)
		}
		if el = time.Since(start); el >= d {
			return el, k + 1, failed
		}
	}
}

// runInterp is the interp workload: the suite (plus three seed-drawn
// programs) run to completion on risc1, cisc and rv32, restore then
// RunContext, for d.
func runInterp(seed int64, d time.Duration, traced bool) (*outcome, error) {
	suite := bench.Suite(bench.Default())
	if traced {
		return traceInterp(suite, seed, d)
	}
	var in *interpInputs
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t := cpuTime()
		var err error
		if in, err = prepareInterp(suite, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - t).Seconds())
	}
	runtime.GC()

	// Every pass runs the same programs, so each (machine, program) run is
	// timed once per pass and counts at the median of its times. What
	// moves the times on a shared host is mostly the host's own speed,
	// which now and then runs faster for seconds at a time; the median
	// stays with the speed it keeps for most of a run, where the lower
	// quartile or the minimum would follow the fast stretches.
	//
	// The peak RSS is the highest resident set read after a pass. The
	// kernel's high-water mark (VmHWM) read 14.6–15.4 MiB in most runs
	// and 17.7–28.3 MiB in about one run in eight, with a heap that never
	// passed 4 MiB; what touched the pages was not found.
	_, passes, failed := in.loop(d, 0, nil)
	if in.rss == 0 {
		return nil, errors.New("interp: no resident set read")
	}
	out := &outcome{correct: failed == 0, attempted: in.ops, failed: failed, metrics: map[string]float64{}}
	var passNS float64
	for _, im := range in.machines {
		var instr uint64
		var micros, ns float64
		for _, r := range im.runs {
			instr += r.instr
			micros += r.micros
			ns += median(r.ns)
		}
		passNS += ns
		out.metrics["sim_mips."+im.b.Name] = float64(instr) / ns * 1e3
		out.metrics["guest_ms."+im.b.Name] = micros / 1e3
	}
	out.metrics["rps"] = float64(in.ops/passes) / (passNS / 1e9)
	out.metrics["p50_ms"] = passNS / 1e6
	out.metrics["peak_rss_mib"] = in.rss
	out.metrics["setup_s"] = median(setups)
	return out, nil
}

// traceInterp is the traced run of interp: the same inputs, set up once
// with compile spans, then half the time untraced and half traced, so the
// difference between the halves is the tracing overhead.
func traceInterp(suite []bench.Workload, seed int64, d time.Duration) (*outcome, error) {
	tr := newTracer()
	in, err := prepareInterp(suite, seed, tr)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	elA, passesA, failedA := in.loop(d/2, 0, nil)
	elB, passesB, failedB := in.loop(d/2, passesA, tr)
	failed := failedA + failedB
	out := &outcome{correct: failed == 0, attempted: in.ops, failed: failed, metrics: map[string]float64{}, tracer: tr,
		overhead: overhead(elA, passesA, elB, passesB, "suite pass")}
	return out, nil
}
