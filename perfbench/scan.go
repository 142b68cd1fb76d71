package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"fusedscan"
)

// The scan workload is the paper's: multi-predicate conjunctive scans over
// a fact table whose predicate columns (4 x 64 MiB of plain int32) are
// well above the 105 MiB LLC, so every query streams from memory.
const (
	scanRows  = 1 << 24 // 256 chunks of 64Ki rows
	pValues   = 1000    // the packed column's domain, 10 bits per value
	kRange    = 1 << 14 // width of a clustered-key range query
	kStepOdds = 16      // k grows by one every 16 rows on average
)

var scanKinds = []string{"fig7_2", "fig7_3", "fig7_4", "sum_fused", "packed", "cluster_range", "wide40"}

// scanWant holds every answer the scan workload can be asked for,
// computed with plain loops while the data is generated.
type scanWant struct {
	cnt2, cnt3, cnt4, sum3 [100]int64 // by the literal x of "a = x"
	pBelow                 [pValues + 1]int64
	kBelow                 []int64 // kBelow[x] = rows with k < x
	d40                    int64   // rows with d < 40
}

type scanData struct {
	a, b, c, d, p, k []int32
	want             scanWant
}

// genScan generates the fact table: a, b, c and d uniform over [0, 100)
// (so "a = x" keeps 1% of rows and each "< 50" half of what remains, the
// shape of the paper's Fig. 7), p uniform over [0, 1000) and bit-packed,
// and k a non-decreasing insertion-order key, as a time-ordered fact
// table has. The clustering still runs (ClusterBy), but over input that
// arrives in key order: clustering 16M unsorted rows costs more than a
// whole run's time budget at the parent of this benchmark, which
// column.cluster_unsorted_s reports on 1M rows instead.
func genScan(seed uint64, n int) *scanData {
	rng := rand.New(rand.NewPCG(seed, 0x5ca4))
	s := &scanData{}
	for _, col := range []*[]int32{&s.a, &s.b, &s.c, &s.d, &s.p, &s.k} {
		*col = make([]int32, n)
	}
	w := &s.want
	var k int32
	for i := 0; i < n; i++ {
		x, y := rng.Uint64(), rng.Uint64()
		a := int32(x&0xffff) % 100
		b := int32(x>>16&0xffff) % 100
		c := int32(x>>32&0xffff) % 100
		d := int32(x>>48) % 100
		p := int32(y&0xffff) % pValues
		if y>>16%kStepOdds == 0 {
			k++
		}
		s.a[i], s.b[i], s.c[i], s.d[i], s.p[i], s.k[i] = a, b, c, d, p, k
		if b < 50 {
			w.cnt2[a]++
			if c < 50 {
				w.cnt3[a]++
				w.sum3[a] += int64(d)
				if d < 50 {
					w.cnt4[a]++
				}
			}
		}
		w.pBelow[p+1]++
		if d < 40 {
			w.d40++
		}
	}
	for x := 1; x <= pValues; x++ {
		w.pBelow[x] += w.pBelow[x-1]
	}
	w.kBelow = make([]int64, int(k)+2)
	for _, v := range s.k {
		w.kBelow[v+1]++
	}
	for x := 1; x < len(w.kBelow); x++ {
		w.kBelow[x] += w.kBelow[x-1]
	}
	return s
}

// nativeConfig is the native path on every core the runtime may use.
func nativeConfig() fusedscan.Config {
	cfg := fusedscan.NativeConfig()
	cfg.Cores = runtime.GOMAXPROCS(0)
	return cfg
}

type scanInst struct {
	eng  *fusedscan.Engine
	want scanWant
	kMax int32
}

func setupScan(env *setupEnv) (instance, error) { return newScan(env.seed, scanRows) }

func newScan(seed uint64, rows int) (*scanInst, error) {
	data := genScan(seed, rows)
	eng := fusedscan.NewEngine()
	if err := eng.SetConfig(nativeConfig()); err != nil {
		return nil, err
	}
	err := eng.CreateTable("fact").
		Int32("a", data.a).Int32("b", data.b).Int32("c", data.c).Int32("d", data.d).
		Int32("p", data.p).Int32("k", data.k).
		ClusterBy("k").Pack("p").Finish()
	if err != nil {
		return nil, err
	}
	return &scanInst{eng: eng, want: data.want, kMax: data.k[len(data.k)-1]}, nil
}

func (s *scanInst) kinds() []string { return scanKinds }

// pick cycles through the kinds, so every run holds the same mix.
func (s *scanInst) pick(c *clientState) int { return int(c.n % int64(len(scanKinds))) }

func (s *scanInst) do(c *clientState, kind int, ot *opTrace) (time.Duration, error) {
	x := c.rng.IntN(100)
	var sql string
	var want int64
	switch scanKinds[kind] {
	case "fig7_2":
		sql, want = fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE a = %d AND b < 50", x), s.want.cnt2[x]
	case "fig7_3":
		sql, want = fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE a = %d AND b < 50 AND c < 50", x), s.want.cnt3[x]
	case "fig7_4":
		sql, want = fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE a = %d AND b < 50 AND c < 50 AND d < 50", x), s.want.cnt4[x]
	case "sum_fused":
		sql, want = fmt.Sprintf("SELECT SUM(d) FROM fact WHERE a = %d AND b < 50 AND c < 50", x), s.want.sum3[x]
	case "packed":
		lim := 1 + c.rng.IntN(10)
		sql, want = fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE p < %d", lim), s.want.pBelow[lim]
	case "cluster_range":
		lo := c.rng.IntN(max(1, int(s.kMax)-kRange))
		hi := min(lo+kRange, int(s.kMax)+1)
		sql = fmt.Sprintf("SELECT COUNT(*) FROM fact WHERE k >= %d AND k < %d", lo, hi)
		want = s.want.kBelow[hi] - s.want.kBelow[lo]
	case "wide40":
		sql, want = "SELECT COUNT(*) FROM fact WHERE d < 40", s.want.d40
	}
	res, lat, err := query(s.eng, sql, ot)
	if err != nil {
		return lat, err
	}
	if scanKinds[kind] == "sum_fused" {
		return lat, checkInt("SUM(d)", res.Sum, want)
	}
	return lat, checkCount(res.Count, want)
}

func (s *scanInst) layers(m metrics, ph phases) error {
	// Lazy statistics and zone maps are built by the first query that
	// touches a column: the first run of each kind minus its steady state.
	lazy := 0.0
	for kind, first := range ph.warmFirst {
		lazy += max(0, (first - quantile(ph.untraced.latencies(kind), 0.5)).Seconds())
	}
	m.set("column.lazy_stats_s", lazy, "s")

	var chunks, pruned int64
	for _, o := range ph.traced.traces {
		if o.kind != "cluster_range" {
			continue
		}
		for _, op := range o.operators {
			if operatorLayer(op) == "scan" {
				pruned += op.ChunksPruned
				chunks += op.ChunksPruned + (op.RowsIn+chunkRows-1)/chunkRows
			}
		}
	}
	if chunks > 0 {
		m.set("scan.chunks_pruned_frac_clustered", float64(pruned)/float64(chunks), "ratio")
	}

	sec, err := clusterUnsorted(1 << 20)
	if err != nil {
		return err
	}
	m.set("column.cluster_unsorted_s", sec, "s")
	return nil
}

// clusterUnsorted times ClusterBy over n rows of uniformly random keys
// with one payload column.
func clusterUnsorted(n int) (float64, error) {
	rng := rand.New(rand.NewPCG(uint64(n), 0xc1))
	k, v := make([]int32, n), make([]int32, n)
	for i := range k {
		k[i], v[i] = rng.Int32N(1<<20), int32(i)
	}
	eng := fusedscan.NewEngine()
	b := eng.CreateTable("unsorted").Int32("k", k).Int32("v", v)
	start := time.Now()
	b.ClusterBy("k")
	sec := time.Since(start).Seconds()
	return sec, b.Finish()
}

func (s *scanInst) close() error { return nil }

func (s *scanInst) engine() *fusedscan.Engine { return s.eng }
