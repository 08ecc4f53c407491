package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"risc1/internal/cc/progen"
)

// The serve workloads start risc1-serve with these settings. The result
// cache holds about 6600 replies of ~2.5 KB: the serve-hot corpus fits,
// and serve-cold fills it and evicts within its first ten seconds. Fuel
// and deadline are the server's defaults; the in-process replay uses the
// same values.
const (
	corpusSize     = 3000     // serve-hot corpus, 1000 programs per machine
	coldRound      = 3000     // base programs of every serve-cold round, 1000 per machine
	coldWarmup     = 150      // fresh programs a serve-cold server sees before timing
	windowSize     = 30       // requests per timed window
	rssAfter       = 6000     // timed requests after which the server's peak RSS is read
	cacheBytes     = 16 << 20 // -cache-bytes
	progCacheBytes = 16 << 20 // -prog-cache-bytes
	maxFuel        = 1 << 26
	runTimeout     = 10 * time.Second
)

// request is one generated POST /v1/run with the value progen's Go mirror
// computed for its program.
type request struct {
	machine int // index into machineNames
	name    string
	source  string
	want    int32
	body    []byte
}

// kinds are progen's three kinds of program: expression, loop and call.
var kinds = []func(*rand.Rand) (string, int32){progen.ExprProgram, progen.LoopProgram, progen.CallProgram}

// fresh draws progen programs from a seed, never repeating a source, and
// spreads them round robin over the machines, each machine taking the
// three kinds in turn, so every machine gets the same mix of kinds
// whatever the seed. Every request it makes is one the server has never
// seen.
type fresh struct {
	r      *rand.Rand
	seen   map[string]bool
	n      int
	prefix string
}

func newFresh(seed int64) *fresh {
	return &fresh{r: rand.New(rand.NewSource(seed)), seen: map[string]bool{}, prefix: "seed" + strconv.FormatInt(seed, 10)}
}

func (f *fresh) next() request {
	for {
		src, want := kinds[f.n/len(machineNames)%len(kinds)](f.r)
		if f.seen[src] {
			continue
		}
		f.seen[src] = true
		q := request{machine: f.n % len(machineNames), name: fmt.Sprintf("%s-%d", f.prefix, f.n), source: src, want: want}
		f.n++
		q.encode()
		return q
	}
}

// encode sets the body of a POST /v1/run for the request.
func (q *request) encode() {
	q.body, _ = json.Marshal(struct {
		Schema  string `json:"schema"`
		Name    string `json:"name"`
		Source  string `json:"source"`
		Machine string `json:"machine"`
	}{"risc1.run-request/v1", q.name, q.source, machineNames[q.machine]}) // strings only: cannot fail
}

func (f *fresh) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = f.next()
	}
	return out
}

// server is a risc1-serve subprocess on a loopback port, with a client
// holding one keep-alive connection to it.
type server struct {
	cmd    *osexec.Cmd
	exited chan struct{}
	base   string
	client *http.Client
	buf    bytes.Buffer
	stderr bytes.Buffer
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startServer starts risc1-serve and waits until /healthz answers.
func startServer(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + port
	args := []string{bin, "-addr", addr, "-cache-bytes", strconv.Itoa(cacheBytes), "-prog-cache-bytes", strconv.Itoa(progCacheBytes)}
	s := &server{
		cmd:    osexec.Command(args[0], args[1:]...),
		exited: make(chan struct{}),
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
	}
	s.cmd.Stderr = &s.stderr
	// The server dies with the benchmark even when the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start risc1-serve: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("risc1-serve exited during start: %s", s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("risc1-serve did not become healthy: %s", s.stderr.String())
		}
	}
}

// stop sends SIGTERM, lets the server drain, and kills it if it has not
// exited in ten seconds. It returns once the process has ended.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) peakRSS() (float64, error) {
	return peakRSSMiB(strconv.Itoa(s.cmd.Process.Pid))
}

// runReply is the part of a risc1.run-response/v1 body the benchmark
// checks and measures.
type runReply struct {
	Value  *int32 `json:"value"`
	Report *struct {
		Totals struct {
			Instructions uint64  `json:"instructions"`
			Micros       float64 `json:"micros"`
		} `json:"totals"`
	} `json:"report"`
}

// sample is one request as the client saw it.
type sample struct {
	machine int
	latency time.Duration
	instr   uint64
	micros  float64
}

// post sends one request and checks the reply against the cache state
// the workload promises.
func (s *server) post(q request, wantCache string) (sample, error) {
	t0 := time.Now()
	sm := sample{machine: q.machine}
	resp, err := s.client.Post(s.base+"/v1/run", "application/json", bytes.NewReader(q.body))
	if err != nil {
		sm.latency = time.Since(t0)
		return sm, err
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	sm.latency = time.Since(t0)
	if err != nil {
		return sm, err
	}
	var r runReply
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(s.buf.Bytes(), &r); err != nil {
			return sm, err
		}
		if r.Report != nil {
			sm.instr, sm.micros = r.Report.Totals.Instructions, r.Report.Totals.Micros
		}
	}
	return sm, checkReply(resp.StatusCode, resp.Header.Get("X-Risc1-Cache"), wantCache, r.Value, q.want)
}

// metrics scrapes /metrics, summing each series over its labels.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("bad /metrics line %q", line)
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out, nil
}

// serveInputs is one serve workload's requests. Every timed round makes
// the same work: serve-hot replays its fixed corpus, and serve-cold sends
// its fixed base programs, each changed so that the server has never seen
// it (see tagged).
type serveInputs struct {
	hot    bool
	base   []request // serve-hot's corpus, serve-cold's base programs
	warm   []request // requests a server answers during set-up
	rounds int       // serve-cold rounds handed out
}

func newServeInputs(hot bool, seed int64) *serveInputs {
	f := newFresh(seed)
	if hot {
		in := &serveInputs{hot: true, base: f.take(corpusSize)}
		in.warm = in.base
		return in
	}
	in := &serveInputs{base: f.take(coldRound)}
	in.warm = in.tagged(0)[:coldWarmup]
	return in
}

// tagged is serve-cold's round r: each base program with a declaration
// of an unused global named after the round appended. Its source is one
// the server has never seen, so the result, program and image caches all
// miss, yet it compiles and runs like its base program, so every round
// costs the same and round r's window k can be set beside every other
// round's window k.
func (in *serveInputs) tagged(r int) []request {
	out := make([]request, len(in.base))
	for i, q := range in.base {
		q.name = fmt.Sprintf("%s-r%d", q.name, r)
		q.source = fmt.Sprintf("%sint round%d;\n", q.source, r)
		q.encode()
		out[i] = q
	}
	return out
}

// cacheState is the X-Risc1-Cache value every timed request must carry.
func (in *serveInputs) cacheState() string {
	if in.hot {
		return "hit"
	}
	return "miss"
}

func (in *serveInputs) round() []request {
	if in.hot {
		return in.base
	}
	in.rounds++
	return in.tagged(in.rounds)
}

// setUp starts a server and answers the set-up requests; on serve-hot
// those fill the result cache with the corpus.
func (in *serveInputs) setUp(bin string) (*server, error) {
	srv, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	for _, q := range in.warm {
		if _, err := srv.post(q, "miss"); err != nil {
			srv.stop()
			return nil, fmt.Errorf("set-up request %s: %w", q.name, err)
		}
	}
	return srv, nil
}

// window is the record of one timed stretch against a server.
type window struct {
	samples       []sample
	latMS         []float64 // sorted latency of every timed request
	active        time.Duration
	failed        int
	rss           float64 // server's peak RSS after rssAfter timed requests
	before, after map[string]float64

	// Per round, the time of each window and the latency of each
	// request, in milliseconds and in the order sent. Every round makes
	// the same requests in the same order, so index k of one round
	// repeats index k of every other.
	roundWinMS, roundLatMS [][]float64
}

// measure runs whole rounds of one closed-loop connection until d of
// request time has passed.
func (in *serveInputs) measure(srv *server, d time.Duration) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = srv.metrics(); err != nil {
		return nil, err
	}
	want := in.cacheState()
	var first error
	for w.active < d {
		reqs := in.round()
		var winMS, latMS []float64
		for len(reqs) > 0 {
			n := min(windowSize, len(reqs))
			start := time.Now()
			for _, q := range reqs[:n] {
				sm, err := srv.post(q, want)
				w.samples = append(w.samples, sm)
				w.latMS = append(w.latMS, float64(sm.latency)/1e6)
				latMS = append(latMS, float64(sm.latency)/1e6)
				if err != nil {
					w.failed++
					if first == nil {
						first = fmt.Errorf("%s: %w", q.name, err)
					}
				}
			}
			el := time.Since(start)
			w.active += el
			winMS = append(winMS, float64(el)/1e6)
			// serve-cold's server grows with every program it has seen,
			// so its peak RSS is read after a fixed number of requests,
			// not after however many the run's time allowed.
			if w.rss == 0 && len(w.samples) >= rssAfter {
				if w.rss, err = srv.peakRSS(); err != nil {
					return nil, err
				}
			}
			reqs = reqs[n:]
		}
		w.roundWinMS = append(w.roundWinMS, winMS)
		w.roundLatMS = append(w.roundLatMS, latMS)
	}
	if first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed requests; first: %v\n", w.failed, first)
	}
	sort.Float64s(w.latMS)
	if w.rss == 0 {
		if w.rss, err = srv.peakRSS(); err != nil {
			return nil, err
		}
	}
	if w.after, err = srv.metrics(); err != nil {
		return nil, err
	}
	return w, nil
}

// delta is a /metrics counter's growth over the window.
func (w *window) delta(name string) float64 { return w.after[name] - w.before[name] }

// runServe is serve-hot or serve-cold: a fresh risc1-serve, one
// closed-loop connection, every reply checked.
func runServe(hot bool, cfg config, traced bool) (*outcome, error) {
	if traced {
		return traceServe(hot, cfg)
	}
	var srv *server
	var in *serveInputs
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		t := time.Now()
		in = newServeInputs(hot, cfg.seed)
		var err error
		if srv, err = in.setUp(cfg.serveBin); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer srv.stop()

	w, err := in.measure(srv, cfg.seconds)
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: w.failed == 0, attempted: len(w.samples), failed: w.failed, metrics: map[string]float64{}}
	// Every round makes the same requests in the same order, so each
	// window and each request is timed once per round and counts at the
	// median of its times over the rounds (see runInterp).
	var roundMS float64
	for _, ms := range itemMedians(w.roundWinMS) {
		roundMS += ms
	}
	lat := itemMedians(w.roundLatMS)
	// The guest figures leave out the tails of each machine's requests: a
	// few programs that loop long (RISC I divides in software) would move
	// a mean with the seed. Simulated times take few distinct values, so
	// guest_ms is the mean of the middle half rather than the median,
	// which would jump between them.
	var mips, guestMS [3][]float64
	for k, ms := range lat {
		s := w.samples[k] // the first round's reply to request k
		mips[s.machine] = append(mips[s.machine], float64(s.instr)/ms/1e3)
		guestMS[s.machine] = append(guestMS[s.machine], s.micros/1e3)
	}
	for i, name := range machineNames {
		out.metrics["sim_mips."+name] = median(mips[i])
		out.metrics["guest_ms."+name] = interquartileMean(guestMS[i])
	}
	out.metrics["rps"] = float64(len(lat)) / roundMS * 1e3
	out.metrics["p50_ms"] = median(lat)
	out.metrics["peak_rss_mib"] = w.rss
	out.metrics["setup_s"] = median(setups)
	return out, nil
}
