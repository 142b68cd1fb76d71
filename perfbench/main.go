// Command perfbench is the repository benchmark: three workloads driven
// through the engine's public surfaces (SQL text in, rows out, in-process
// and over HTTP), each answer checked against expectations computed with
// plain Go loops over the generated data. See README.md for the workloads,
// the metrics and the layer map.
//
//	go run . --workload scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, taken from a traced phase that follows an untraced phase of the
// same length.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"fusedscan"
)

// buildDir holds, relative to the repository root, everything a run
// leaves behind: run.sh's binary and Go caches, the per-run work
// directories and the traced runs' spans.
const buildDir = ".bench_build"

// setupRounds is how many times a run builds its workload from scratch;
// setup_s is the median of these, so a one-off stall does not move it.
const setupRounds = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: scan, short or pipeline")
	seed := fs.Uint64("seed", 1, "seed for the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload scan|short|pipeline, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := checkClients(w.clients, runtime.NumCPU()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	work, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	host := hostFingerprint()
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Fprintln(stdout, string(hostLine))

	out, err := measure(w, config{seed: *seed, seconds: *seconds, trace: *traced == 1, work: work, host: host})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: set-ups took %.3f s\n", out.setups)
	if *traced == 1 {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, *seed))
		if err := out.tracer.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(out.tracer.spans), path)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.result.Correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong answer(s); first: %v\n", out.wrong, out.firstWrong)
		return 1
	}
	return 0
}

// checkClients refuses a load generator with more client goroutines than
// the host has CPUs: on a closed loop, extra clients only queue behind
// each other and the benchmark would measure the host's scheduler.
func checkClients(clients, nproc int) error {
	if clients > nproc {
		return fmt.Errorf("workload needs %d clients but the host has %d CPUs", clients, nproc)
	}
	return nil
}

// workload is one named traffic mix.
type workload struct {
	name    string
	clients int
	// setup builds the tables (and server, for short) and runs every op
	// kind once, so lazily built statistics and zone maps exist before
	// timing starts.
	setup func(env *setupEnv) (instance, error)
}

var workloads = map[string]workload{
	"scan":     {name: "scan", clients: 1, setup: setupScan},
	"short":    {name: "short", clients: shortClients, setup: setupShort},
	"pipeline": {name: "pipeline", clients: 1, setup: setupPipeline},
}

type setupEnv struct {
	seed uint64
	dir  string // private scratch directory for this set-up
}

// instance is a set-up workload ready to serve ops.
type instance interface {
	// kinds names the op kinds the workload serves.
	kinds() []string
	// pick chooses client c's next op kind, an index into kinds.
	pick(c *clientState) int
	// do runs one op of the given kind. lat is the user-visible latency of
	// the call alone (answer checking excluded); err wraps errWrong when
	// the answer was wrong. ot is nil on untraced ops.
	do(c *clientState, kind int, ot *opTrace) (lat time.Duration, err error)
	// layers adds the workload's own per-layer metrics (engine counters,
	// storage, recovery) after the traced phase.
	layers(m metrics, ph phases) error
	engine() *fusedscan.Engine
	close() error
}

type clientState struct {
	id  int
	n   int64 // ops issued so far
	rng *rand.Rand
}

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	work    string
	host    fingerprint
}

// phases carries what the workload's layers method may need from the
// untraced and traced phases of a traced run.
type phases struct {
	untraced, traced *phaseResult
	warmFirst        map[string]time.Duration // first execution of each kind during set-up
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type outcome struct {
	result     result
	setups     []float64 // seconds each set-up round took
	tracer     *tracer
	wrong      int64
	firstWrong error
}

func measure(w workload, cfg config) (*outcome, error) {
	var host hostProbe
	if cfg.trace {
		// Probed before any table exists, so the bandwidth buffer does not
		// compete with table data for memory.
		host = probeHost(cfg.host.LLCBytes)
	}

	setups := make([]float64, 0, setupRounds)
	var inst instance
	var warmFirst map[string]time.Duration
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		inst, err = w.setup(&setupEnv{seed: cfg.seed, dir: dir})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm, err := warmUp(inst, w.clients, cfg.seed)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		warmFirst = warm
	}
	defer inst.close()

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	residentMB := float64(mem.HeapAlloc) / (1 << 20)

	out := &outcome{setups: setups}
	m := metrics{}
	if !cfg.trace {
		ph := runPhase(inst, w.clients, cfg.seed, cfg.seconds, nil)
		out.absorb(ph)
		m.set("setup_s", median(setups), "s")
		m.set("throughput_qps", ph.qps(), "ops/s")
		m.set("latency_p50_ms", ms(quantile(ph.latencies(), 0.5)), "ms")
		m.set("alloc_mb_per_op", ph.allocPerOp()/(1<<20), "MB")
		m.set("resident_mb", residentMB, "MB")
	} else {
		untraced := runPhase(inst, w.clients, cfg.seed, cfg.seconds/2, nil)
		tr := newTracer()
		traced := runPhase(inst, w.clients, cfg.seed, cfg.seconds/2, tr)
		out.absorb(untraced)
		out.absorb(traced)
		out.tracer = tr
		traceLayers(m, untraced, traced)
		host.report(m)
		if gbs, ok := m["scan.gbs"]; ok && host.memReadGBs > 0 {
			m.set("scan.roofline_frac", gbs.Value/host.memReadGBs, "ratio")
		}
		if err := inst.layers(m, phases{untraced: untraced, traced: traced, warmFirst: warmFirst}); err != nil {
			return nil, err
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if len(m) != len(defs) {
		return nil, fmt.Errorf("reported %d metrics, want the %d listed", len(m), len(defs))
	}
	for _, d := range defs {
		if got, ok := m[d.name]; !ok || got.Unit != d.unit {
			return nil, fmt.Errorf("metric %s reported as %+v, want unit %s", d.name, got, d.unit)
		}
	}
	out.result.Metrics = m
	out.result.Correct = out.wrong == 0
	return out, nil
}

func (o *outcome) absorb(ph *phaseResult) {
	o.result.Attempted += ph.attempted
	o.result.Failed += ph.failed
	o.wrong += ph.wrong
	if o.firstWrong == nil {
		o.firstWrong = ph.firstWrong
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// warmUp runs every op kind once per client and returns the first
// latency of each kind.
func warmUp(inst instance, clients int, seed uint64) (map[string]time.Duration, error) {
	first := map[string]time.Duration{}
	kinds := inst.kinds()
	for c := 0; c < clients; c++ {
		cs := newClient(c, seed^0x5eed)
		for k, kind := range kinds {
			lat, err := inst.do(cs, k, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", kind, err)
			}
			if _, seen := first[kind]; !seen {
				first[kind] = lat
			}
		}
	}
	return first, nil
}

func newClient(id int, seed uint64) *clientState {
	return &clientState{id: id, rng: rand.New(rand.NewPCG(seed, uint64(id)+1))}
}

// sample is one completed op: lat is its user-visible latency, wall the
// time the client spent on it, answer checking and tracing included.
type sample struct {
	kind      string
	lat, wall time.Duration
}

type phaseResult struct {
	samples    []sample
	attempted  int64
	failed     int64
	wrong      int64
	firstWrong error
	wall       time.Duration
	alloc      uint64 // heap bytes allocated during the phase
	gcs        uint32
	pauseNs    uint64
	traces     []*opTrace // traced ops, in completion order

	statsBefore, statsAfter fusedscan.EngineStats
}

// runPhase drives clients closed-loop for the given number of seconds:
// each client issues its next op only when the previous one returned.
func runPhase(inst instance, clients int, seed uint64, seconds float64, tr *tracer) *phaseResult {
	var before, after runtime.MemStats
	runtime.GC()
	statsBefore := inst.engine().Stats()
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	results := make([]*phaseResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pr := &phaseResult{}
			cs := newClient(c, seed)
			kinds := inst.kinds()
			for time.Now().Before(deadline) {
				k := inst.pick(cs)
				kind := kinds[k]
				ot := tr.begin()
				opStart := time.Now()
				lat, err := inst.do(cs, k, ot)
				wall := time.Since(opStart)
				cs.n++
				pr.attempted++
				if err != nil {
					pr.failed++
					if errors.Is(err, errWrong) {
						pr.wrong++
						if pr.firstWrong == nil {
							pr.firstWrong = fmt.Errorf("%s: %w", kind, err)
						}
					}
					continue
				}
				pr.samples = append(pr.samples, sample{kind: kind, lat: lat, wall: wall})
				if ot != nil {
					ot.kind = kind
					ot.finish()
					pr.traces = append(pr.traces, ot)
				}
			}
			results[c] = pr
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	all := &phaseResult{
		wall:        wall,
		alloc:       after.TotalAlloc - before.TotalAlloc,
		gcs:         after.NumGC - before.NumGC,
		pauseNs:     after.PauseTotalNs - before.PauseTotalNs,
		statsBefore: statsBefore,
		statsAfter:  inst.engine().Stats(),
	}
	for _, pr := range results {
		all.samples = append(all.samples, pr.samples...)
		all.attempted += pr.attempted
		all.failed += pr.failed
		all.wrong += pr.wrong
		if all.firstWrong == nil {
			all.firstWrong = pr.firstWrong
		}
		all.traces = append(all.traces, pr.traces...)
	}
	return all
}

func (p *phaseResult) qps() float64 { return float64(len(p.samples)) / p.wall.Seconds() }

func (p *phaseResult) allocPerOp() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.alloc) / float64(p.attempted)
}

// latencies returns the latencies of successful ops, optionally of one
// kind only, sorted ascending.
func (p *phaseResult) latencies(kinds ...string) []time.Duration {
	var out []time.Duration
	for _, s := range p.samples {
		if len(kinds) == 0 || slices.Contains(kinds, s.kind) {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// kindMeans returns, per op kind, the number of successful ops and the
// mean of f over them.
func (p *phaseResult) kindMeans(f func(sample) float64) (n map[string]int, mean map[string]float64) {
	n, mean = map[string]int{}, map[string]float64{}
	for _, s := range p.samples {
		n[s.kind]++
		mean[s.kind] += f(s)
	}
	for k := range mean {
		mean[k] /= float64(n[k])
	}
	return n, mean
}

// mixRatio compares per-kind means of two phases at the first phase's op
// mix: sum over kinds of n_k * b_k divided by sum of n_k * a_k. Short
// phases end at different points of a mix, so plain totals would compare
// different mixes.
func mixRatio(n map[string]int, a, b map[string]float64) float64 {
	var num, den float64
	for k, nk := range n {
		if bk, ok := b[k]; ok {
			num += float64(nk) * bk
			den += float64(nk) * a[k]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// ctx is the context every op runs under; ops carry no deadline of
// their own, so a stalled op shows as latency, not as a failure.
var ctx = context.Background()
