package main

import (
	"net/http"
	"testing"

	"risc1/internal/bench"
)

// Every check an operation passes through must be able to fail: a
// corrupted expected value, a non-200 status and a cache state other than
// the one promised each count the operation as failed.
func TestCheckReplyFails(t *testing.T) {
	v := int32(42)
	if err := checkReply(http.StatusOK, "hit", "hit", &v, 42); err != nil {
		t.Fatalf("good reply failed: %v", err)
	}
	cases := []struct {
		name      string
		status    int
		cache     string
		wantCache string
		value     *int32
		want      int32
	}{
		{"corrupted expected value", http.StatusOK, "hit", "hit", &v, 43},
		{"non-200 status", http.StatusTooManyRequests, "hit", "hit", &v, 42},
		{"miss on serve-hot", http.StatusOK, "miss", "hit", &v, 42},
		{"hit on serve-cold", http.StatusOK, "hit", "miss", &v, 42},
		{"coalesced on serve-cold", http.StatusOK, "coalesced", "miss", &v, 42},
		{"no value", http.StatusOK, "miss", "miss", nil, 42},
	}
	for _, c := range cases {
		if err := checkReply(c.status, c.cache, c.wantCache, c.value, c.want); err == nil {
			t.Errorf("%s: check passed", c.name)
		}
	}
}

// The interp check compares a run's result word with Workload.Expected;
// a corrupted expectation must fail it.
func TestCheckValueFails(t *testing.T) {
	w, ok := bench.ByName(bench.Suite(bench.Small()), "fib")
	if !ok {
		t.Fatal("no fib in the suite")
	}
	if err := checkValue(w.Expected, w.Expected); err != nil {
		t.Fatalf("good value failed: %v", err)
	}
	if err := checkValue(w.Expected, w.Expected+1); err == nil {
		t.Fatal("corrupted expected value passed")
	}
}

// The interp workload really runs the checked programs: one small pass
// on every machine passes every check, and a corrupted expected value in
// the prepared inputs is caught.
func TestInterpPassChecks(t *testing.T) {
	in, err := prepareInterp(bench.Suite(bench.Small()), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if failed := in.pass(0, nil); failed != 0 {
		t.Fatalf("%d failed runs on a clean pass", failed)
	}
	in.machines[1].runs[0].want++
	if failed := in.pass(1, nil); failed != 1 {
		t.Fatalf("corrupted expectation: %d failed runs, want 1", failed)
	}
}

// Fresh-program streams never repeat a source, so every serve-cold
// request misses every cache, and equal seeds give equal streams.
func TestFreshProgramsDistinct(t *testing.T) {
	a, b := newFresh(7), newFresh(7)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		p, q := a.next(), b.next()
		if p.source != q.source || p.machine != q.machine {
			t.Fatalf("program %d differs between equal seeds", i)
		}
		if seen[p.source] {
			t.Fatalf("program %d repeats a source", i)
		}
		seen[p.source] = true
	}
}

// Every serve-cold round sends sources no earlier round sent, with the
// base programs' machines and expected values, so every timed request
// misses every cache while each round makes the same work.
func TestColdRoundsDistinct(t *testing.T) {
	in := newServeInputs(false, 3)
	seen := map[string]bool{}
	for _, q := range in.warm {
		seen[q.source] = true
	}
	for r := 1; r <= 3; r++ {
		reqs := in.round()
		if len(reqs) != len(in.base) {
			t.Fatalf("round %d has %d requests, want %d", r, len(reqs), len(in.base))
		}
		for k, q := range reqs {
			if seen[q.source] {
				t.Fatalf("round %d request %d repeats a source", r, k)
			}
			seen[q.source] = true
			if b := in.base[k]; q.machine != b.machine || q.want != b.want {
				t.Fatalf("round %d request %d differs from its base program", r, k)
			}
		}
	}
}
