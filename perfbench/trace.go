package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fusedscan"
)

// A span is one call into a layer entry point, made from the benchmark's
// own code, or one engine operator laid out inside the engine call that
// reported it. Spans of one op share Op; Parent is the index of the
// parent span within the op, -1 for the op's root.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a run in memory; write saves them when the
// run ends.
type tracer struct {
	epoch  time.Time
	nextOp atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace collects one op's spans and the counters read at the same
// boundaries. A nil *opTrace is an untraced op: every method is a no-op.
type opTrace struct {
	tr    *tracer
	op    int64
	kind  string
	spans []span

	operators  []fusedscan.OperatorStats // from the in-process execution
	serverNs   int64                     // elapsed time the server reported
	probeRows  int64                     // positions the external index probe returned
	streamRows int64                     // rows a streamed op delivered
	queued     int64                     // admission waiters when the op began

	ddl                 bool
	walFsyncs, walBytes int64 // WAL growth across a DDL op
}

func (t *tracer) begin() *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{tr: t, op: t.nextOp.Add(1)}
	o.start("op", -1)
	return o
}

func (o *opTrace) now() int64 { return int64(time.Since(o.tr.epoch)) }

// start opens a span and returns its id.
func (o *opTrace) start(name string, parent int) int {
	if o == nil {
		return -1
	}
	t := o.now()
	o.spans = append(o.spans, span{Op: o.op, ID: len(o.spans), Parent: parent, Name: name, Start: t, End: t})
	return len(o.spans) - 1
}

func (o *opTrace) end(id int) {
	if o == nil {
		return
	}
	o.spans[id].End = o.now()
}

// finish closes the root span, names it after the op kind and hands the
// spans to the tracer.
func (o *opTrace) finish() {
	o.end(0)
	o.spans[0].Name = "op:" + o.kind
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.spans...)
	o.tr.mu.Unlock()
}

// addOperators lays the engine's operator list out as child spans of
// parent, each ending where its parent ends and siblings placed back to
// back, so that a span's interval self time equals its WallNs minus its
// children's WallNs. The engine reports WallNs inclusive of children and
// Depth per entry, root first, children after their parent.
func (o *opTrace) addOperators(ops []fusedscan.OperatorStats, parent int) {
	if o == nil {
		return
	}
	o.operators = ops
	// stack[d] is the span id of the most recent operator at depth d;
	// cursor[d] is where the next child of that operator must end.
	var stack []int
	var cursor []int64
	for _, op := range ops {
		d := op.Depth
		if d > len(stack) {
			d = len(stack) // malformed depth: attach to the deepest open operator
		}
		stack, cursor = stack[:d], cursor[:d]
		p, end := parent, o.spans[parent].End
		if d > 0 {
			p, end = stack[d-1], cursor[d-1]
		}
		start := end - op.WallNs
		if start < o.spans[p].Start {
			start = o.spans[p].Start
		}
		o.spans = append(o.spans, span{Op: o.op, ID: len(o.spans), Parent: p, Name: operatorLayer(op), Detail: op.Name, Start: start, End: end})
		if d > 0 {
			cursor[d-1] = start
		}
		stack = append(stack, len(o.spans)-1)
		cursor = append(cursor, end)
	}
}

// operatorLayer names the layer an engine operator belongs to.
func operatorLayer(op fusedscan.OperatorStats) string {
	n := op.Name
	switch {
	case strings.HasPrefix(n, "HashJoin["):
		return "pqp.join"
	case strings.HasPrefix(n, "GroupBy["):
		return "pqp.group"
	case strings.HasPrefix(n, "Aggregate["):
		return "pqp.agg"
	case strings.HasPrefix(n, "Sort["):
		return "pqp.sort"
	case strings.HasPrefix(n, "Projection["):
		return "pqp.project"
	case strings.HasPrefix(n, "IndexScan["):
		return "pqp.indexscan"
	case op.Path != "" || strings.Contains(n, "TableScan"):
		return "scan"
	}
	return "pqp.other"
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. spans are one op's, indexed by ID.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// find returns the id of the op's first span with the given name, or -1.
func (o *opTrace) find(name string) int {
	for i, s := range o.spans {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// acc accumulates a per-call mean.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }
func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// traceLayers computes the per-layer metrics every workload reports from
// the traced ops' spans and counters, and the run-level ones from the
// untraced phase. Layers a workload never enters report 0.
func traceLayers(m metrics, untraced, traced *phaseResult) {
	for _, d := range perLayer {
		m.set(d.name, 0, d.unit)
	}
	var parse, plan, residual, handler, transport, probe, probeRows acc
	// accounted sums, by op kind, only the spans that are timed on their
	// own: parse, plan, operator self times and transport. The remainders
	// (engine.residual_us, server.handler_us) are left out, so that
	// 1 - trace.accounted_frac is the share of the latency no layer
	// explains. The external index probe is left out too: it repeats work
	// the IndexScan operator's self time already covers.
	accounted := map[string]*acc{}
	selfMs := map[string]*acc{}
	for _, l := range []string{"scan", "pqp.join", "pqp.group", "pqp.agg", "pqp.sort", "pqp.project", "pqp.indexscan", "pqp.other"} {
		selfMs[l] = &acc{}
	}
	var scanBytes, scanNs, chunks, pruned, buildRows, joins, bloomChecks, bloomPass, groups, groupOps int64
	var scanQueries, engineOps, indexOps int64
	var streamRows, streamNs, queuedPeak int64
	for _, o := range traced.traces {
		queuedPeak = max(queuedPeak, o.queued)
		self := selfTimes(o.spans)
		var parseNs, planNs int64
		if i := o.find("sqlparse.parse"); i >= 0 {
			parseNs = o.spans[i].dur()
			parse.add(float64(parseNs) / 1e3)
			if j := o.find("lqp.explain"); j >= 0 {
				planNs = o.spans[j].dur() - parseNs
				plan.add(float64(planNs) / 1e3)
			}
		}
		opSum := int64(0)
		q := o.find("engine.query")
		if q >= 0 {
			engineOps++
			r := self[q] - parseNs - planNs
			residual.add(float64(r) / 1e3)
			opSum += parseNs + planNs
			perOp := map[string]int64{}
			for i, s := range o.spans {
				if _, isOp := selfMs[s.Name]; isOp {
					perOp[s.Name] += self[i]
					opSum += self[i]
				}
			}
			for l, ns := range perOp {
				selfMs[l].add(float64(ns) / 1e6)
			}
			usedIndex, scanned := false, false
			for _, op := range o.operators {
				if op.IndexProbes > 0 {
					usedIndex = true
				}
				switch operatorLayer(op) {
				case "scan":
					scanned = true
					scanBytes += op.BytesScanned
					pruned += op.ChunksPruned
					chunks += op.ChunksPruned + (op.RowsIn+chunkRows-1)/chunkRows
				case "pqp.join":
					joins++
					buildRows += op.BuildRows
					bloomChecks += op.BloomChecks
					bloomPass += op.BloomPass
				case "pqp.group":
					groupOps++
					groups += op.Groups
				}
			}
			if scanned {
				scanQueries++
				scanNs += perOp["scan"]
			}
			if usedIndex {
				indexOps++
			}
		}
		if c := o.find("client.call"); c >= 0 {
			rtt := o.spans[c].dur()
			transport.add(float64(rtt-o.serverNs) / 1e3)
			if q >= 0 {
				handler.add(float64(o.serverNs-o.spans[q].dur()) / 1e3)
			}
			opSum += rtt - o.serverNs
			if o.streamRows > 0 {
				streamRows += o.streamRows
				streamNs += rtt
			}
		}
		if p := o.find("index.probe"); p >= 0 {
			probe.add(float64(o.spans[p].dur()) / 1e3)
			probeRows.add(float64(o.probeRows))
		}
		a := accounted[o.kind]
		if a == nil {
			a = &acc{}
			accounted[o.kind] = a
		}
		a.add(float64(opSum))
	}
	accountedByKind := map[string]float64{}
	for k, a := range accounted {
		accountedByKind[k] = a.mean()
	}

	m.set("sqlparse.parse_us", parse.mean(), "us")
	m.set("lqp.plan_us", plan.mean(), "us")
	m.set("engine.residual_us", residual.mean(), "us")
	for l, a := range selfMs {
		if l != "pqp.indexscan" && l != "pqp.other" {
			m.set(l+".self_ms", a.mean(), "ms")
		}
	}
	m.set("pqp.other.self_ms", selfMs["pqp.other"].mean()+selfMs["pqp.indexscan"].mean(), "ms")
	if engineOps > 0 {
		m.set("lqp.index_path_frac", float64(indexOps)/float64(engineOps), "ratio")
	}
	if scanQueries > 0 {
		m.set("scan.bytes_per_query", float64(scanBytes)/float64(scanQueries), "bytes")
	}
	if scanNs > 0 {
		m.set("scan.gbs", float64(scanBytes)/float64(scanNs), "GB/s")
	}
	if chunks > 0 {
		m.set("scan.chunks_pruned_frac", float64(pruned)/float64(chunks), "ratio")
	}
	if joins > 0 {
		m.set("pqp.join.build_rows", float64(buildRows)/float64(joins), "rows")
	}
	if bloomChecks > 0 {
		m.set("pqp.join.bloom_pass_ratio", float64(bloomPass)/float64(bloomChecks), "ratio")
	}
	if groupOps > 0 {
		m.set("pqp.group.groups", float64(groups)/float64(groupOps), "count")
	}
	m.set("server.handler_us", handler.mean(), "us")
	m.set("server.transport_us", transport.mean(), "us")
	if streamNs > 0 {
		m.set("server.stream_rows_per_s", float64(streamRows)/(float64(streamNs)/1e9), "rows/s")
	}
	m.set("index.probe_us", probe.mean(), "us")
	m.set("index.rows_per_probe", probeRows.mean(), "rows")

	m.set("govern.queued_peak", float64(queuedPeak), "count")
	b, a := untraced.statsBefore, untraced.statsAfter
	if lookups := (a.PlanCacheHits - b.PlanCacheHits) + (a.PlanCacheMisses - b.PlanCacheMisses); lookups > 0 {
		m.set("plancache.hit_ratio", float64(a.PlanCacheHits-b.PlanCacheHits)/float64(lookups), "ratio")
	}
	m.set("plancache.invalidations", float64(a.PlanCacheInvalidations-b.PlanCacheInvalidations), "count")
	m.set("govern.admitted", float64(a.Admitted-b.Admitted), "count")
	m.set("govern.rejected", float64(a.Rejected-b.Rejected), "count")

	lats := untraced.latencies()
	if v, ok := tailQuantile(lats, 0.95); ok {
		m.set("latency_p95_ms", ms(v), "ms")
	}
	if v, ok := tailQuantile(lats, 0.99); ok {
		m.set("latency_p99_ms", ms(v), "ms")
	}
	m.set("latency_samples", float64(len(lats)), "count")
	if w := untraced.latencies("ddl"); len(w) > 0 {
		m.set("write_latency_p50_ms", ms(quantile(w, 0.5)), "ms")
	}
	if untraced.attempted > 0 {
		m.set("failed_frac", float64(untraced.failed+traced.failed)/float64(untraced.attempted+traced.attempted), "ratio")
		m.set("runtime.gc_per_op", float64(untraced.gcs)/float64(untraced.attempted), "count")
	}
	m.set("runtime.gc_pause_ms_per_s", float64(untraced.pauseNs)/1e6/untraced.wall.Seconds(), "ms/s")
	// Both ratios are taken at the untraced phase's op mix: overhead is
	// the traced op's wall time over the untraced one's (the inverse of
	// the throughput ratio), and accounted is the independently timed
	// spans of a traced op over the untraced op's latency.
	n, untracedWall := untraced.kindMeans(func(s sample) float64 { return float64(s.wall) })
	_, tracedWall := traced.kindMeans(func(s sample) float64 { return float64(s.wall) })
	_, untracedLat := untraced.kindMeans(func(s sample) float64 { return float64(s.lat) })
	if r := mixRatio(n, untracedWall, tracedWall); r > 0 {
		m.set("trace.overhead_frac", r-1, "ratio")
	}
	m.set("trace.accounted_frac", mixRatio(n, untracedLat, accountedByKind), "ratio")
}

// chunkRows is the engine's zone-map chunk size (64Ki rows).
const chunkRows = 1 << 16
