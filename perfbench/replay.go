package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"risc1/internal/cc"
	"risc1/internal/exec"
	"risc1/internal/machine"
	"risc1/internal/obs"
	"risc1/internal/rcache"
)

// v1Response mirrors the risc1.run-response/v1 body risc1-serve encodes
// for a successful run, so obs.encode_us times the same encoding.
type v1Response struct {
	Schema string      `json:"schema"`
	Status string      `json:"status,omitempty"`
	Value  *int32      `json:"value,omitempty"`
	Report *obs.Report `json:"report,omitempty"`
}

func encodeV1(v int32, rep obs.Report) error {
	rep.Exec = &obs.ExecStat{Attempts: 1, FuelLimit: maxFuel}
	_, err := json.MarshalIndent(&v1Response{Schema: "risc1.run-response/v1", Status: "ok", Value: &v, Report: &rep}, "", "  ")
	return err
}

// replay drives the layers risc1-serve is built from in-process, through
// their public functions, with the server's settings: a pool with the
// same program-cache budget behind a result cache of the same budget.
type replay struct {
	pool   *exec.Pool
	cached *exec.Cached
	sims   *exec.Sims
	ops    int
}

func newReplay() *replay {
	pool := exec.NewPool(exec.Config{ProgramCacheBytes: progCacheBytes})
	return &replay{pool: pool, cached: exec.NewCached(pool, cacheBytes), sims: pool.ImageSims()}
}

func (rp *replay) spec(q request) exec.Spec {
	return exec.Spec{Name: q.name, Machine: machineNames[q.machine], Source: q.source, Opt: 1, DelaySlots: true, Fuel: maxFuel}
}

// hit is a serve-hot request: the cache key, the result-cache lookup
// (which must hit) and the response encoding.
func (rp *replay) hit(ctx context.Context, q request, tr *tracer) error {
	req := rp.ops
	rp.ops++
	root := tr.begin("serve.request", -1, req)
	defer tr.end(root)
	spec := rp.spec(q)
	s := tr.begin("rcache.key", root, req)
	spec.CacheKey(runTimeout)
	tr.end(s)
	s = tr.begin("rcache.lookup", root, req)
	cr, out, err := rp.cached.Run(ctx, spec, runTimeout)
	tr.end(s)
	if err == nil {
		err = cr.Err
	}
	if err != nil {
		return err
	}
	if out != rcache.Hit {
		return fmt.Errorf("result cache %s, want hit", out)
	}
	s = tr.begin("obs.json", root, req)
	err = encodeV1(cr.Outcome.Value, cr.Outcome.Report)
	tr.end(s)
	if err != nil {
		return err
	}
	return checkValue(cr.Outcome.Value, q.want)
}

// warm answers a serve-hot corpus request through the result cache,
// which must miss.
func (rp *replay) warm(ctx context.Context, q request) error {
	cr, out, err := rp.cached.Run(ctx, rp.spec(q), runTimeout)
	if err == nil {
		err = cr.Err
	}
	if err != nil {
		return err
	}
	if out != rcache.Miss {
		return fmt.Errorf("result cache %s, want miss", out)
	}
	return checkValue(cr.Outcome.Value, q.want)
}

// miss is a serve-cold request taken apart into the steps a result-cache
// miss makes inside the server: cache key, front end, code generation
// through the program cache, warm-start image, then a pool job that
// restores the image, runs it and builds the report, and the response
// encoding.
func (rp *replay) miss(ctx context.Context, q request, tr *tracer) error {
	req := rp.ops
	rp.ops++
	root := tr.begin("serve.request", -1, req)
	defer tr.end(root)
	b, _ := machine.Lookup(machineNames[q.machine])
	spec := rp.spec(q)
	o := b.Normalize(spec.Options())

	s := tr.begin("rcache.key", root, req)
	spec.CacheKey(runTimeout)
	tr.end(s)
	s = tr.begin("cc.frontend", root, req)
	_, _, err := cc.Frontend(q.source, o.Opt)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("cc.compile."+b.Name, root, req)
	_, _, _, err = rp.sims.Compile(ctx, b, q.source, o)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("exec.image", root, req)
	img, err := rp.sims.ImageFor(ctx, b, q.source, o)
	tr.end(s)
	if err != nil {
		return err
	}

	var started, restored, ran, reported time.Time
	var instr uint64
	submitted := time.Now()
	tk, err := rp.pool.Submit(ctx, exec.Job{Key: q.name, Timeout: runTimeout, Fn: func(ctx context.Context, sims *exec.Sims) (any, error) {
		started = time.Now()
		m := sims.Machine(b, o)
		m.Restore(img.Snap)
		restored = time.Now()
		if err := m.RunContext(ctx); err != nil {
			return nil, err
		}
		ran = time.Now()
		addr, _ := img.Prog.Symbol("result")
		v, err := m.Mem().LoadWord(addr)
		if err != nil {
			return nil, err
		}
		instr = m.Instructions()
		rep := m.BuildReport(q.name)
		b.ScrubReport(&rep)
		reported = time.Now()
		return exec.Outcome{Value: int32(v), Report: rep}, nil
	}})
	if err != nil {
		return err
	}
	res, err := tk.Result(ctx)
	if err == nil {
		err = res.Err
	}
	if err != nil {
		return err
	}
	tr.add("exec.queue_wait", submitted, started, root, req, 1)
	run := tr.add("exec.run", started, ran, root, req, 2)
	tr.add("mem.restore."+b.Name, started, restored, run, req, 2)
	tr.add(layers[b.Name]+".run", restored, ran, run, req, 2)
	tr.add("obs.build_report", ran, reported, root, req, 2)
	tr.count(layers[b.Name]+".instr", float64(instr))
	tr.count(layers[b.Name]+".ns", float64(ran.Sub(restored)))

	oc := res.Value.(exec.Outcome)
	s = tr.begin("obs.json", root, req)
	err = encodeV1(oc.Value, oc.Report)
	tr.end(s)
	if err != nil {
		return err
	}
	return checkValue(oc.Value, q.want)
}

// loop replays whole rounds for d and returns the time taken and the
// requests made and failed.
func (rp *replay) loop(in *serveInputs, d time.Duration, tr *tracer) (el time.Duration, n, failed int) {
	ctx := context.Background()
	for el < d {
		reqs := in.round()
		start := time.Now()
		for _, q := range reqs {
			var err error
			if in.hot {
				err = rp.hit(ctx, q, tr)
			} else {
				err = rp.miss(ctx, q, tr)
			}
			if err != nil {
				failed++
			}
		}
		el += time.Since(start)
		n += len(reqs)
	}
	return el, n, failed
}

// traceServe is the traced run of a serve workload. It first drives a
// risc1-serve over HTTP for the run's length, as the untraced run does,
// and reads the server's cache and latency counters over that window; then
// it replays the same inputs in-process for as long again, half untraced
// and half traced, with one span per layer call.
func traceServe(hot bool, cfg config) (*outcome, error) {
	in := newServeInputs(hot, cfg.seed)
	srv, err := in.setUp(cfg.serveBin)
	if err != nil {
		return nil, err
	}
	w, err := in.measure(srv, cfg.seconds)
	srv.stop()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(w.samples), failed: w.failed, metrics: map[string]float64{}}
	ratio := func(prefix string) float64 {
		hits := w.delta(prefix + "_hits_total")
		all := hits + w.delta(prefix+"_misses_total") + w.delta(prefix+"_coalesced_total")
		if all == 0 {
			return 0
		}
		return hits / all
	}
	out.metrics["rcache.hit_ratio"] = ratio("risc1_rcache")
	out.metrics["progcache.hit_ratio"] = ratio("risc1_progcache")
	out.metrics["imgcache.hit_ratio"] = ratio("risc1_imgcache")
	out.metrics["rcache.evictions"] = w.delta("risc1_rcache_evictions_total")
	serverUS := w.delta("risc1_http_request_seconds_sum") / w.delta("risc1_http_request_seconds_count") * 1e6
	var clientNS float64
	for _, s := range w.samples {
		clientNS += float64(s.latency)
	}
	out.metrics["serve.server_us"] = serverUS
	out.metrics["serve.transport_us"] = clientNS/float64(len(w.samples))/1e3 - serverUS
	out.metrics["serve.p99_ms"] = quantile(w.latMS, 99, 100)
	fmt.Fprintf(os.Stderr, "serve.p99_ms from %d samples\n", len(w.latMS))

	rp := newReplay()
	defer rp.pool.Close()
	in = newServeInputs(hot, cfg.seed)
	ctx := context.Background()
	if hot {
		for _, q := range in.base {
			if err := rp.warm(ctx, q); err != nil {
				return nil, fmt.Errorf("replay set-up %s: %w", q.name, err)
			}
		}
	}
	tr := newTracer()
	elA, nA, failedA := rp.loop(in, cfg.seconds/2, nil)
	elB, nB, failedB := rp.loop(in, cfg.seconds/2, tr)
	out.attempted += nA + nB
	out.failed += failedA + failedB
	out.correct = out.failed == 0
	out.tracer = tr
	out.overhead = overhead(elA, nA, elB, nB, "request")
	return out, nil
}
