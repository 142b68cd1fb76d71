package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"fusedscan"
)

// The pipeline workload runs the operators above the scan: a hash join
// with a Bloom filter transferred into the probe scan, GROUP BY, and
// ORDER BY ... LIMIT. Its tables (1M x 5 and 10K x 3 int32 columns,
// about 20 MiB) fit in the LLC, so the scans under these operators are
// cheap and the operators dominate.
const (
	factRows = 1 << 20
	dimRows  = 10_000
	topK     = 10
)

var pipelineKinds = []string{"join_group", "group", "sort_limit"}

// Each kind runs with one literal, so that an op of a kind is the same
// work throughout a run: the three kinds then form three separate latency
// clusters (sort < group < join) and the median falls inside the group
// one instead of between two clusters.
const (
	joinCut  = 20 // d.y < 20 keeps a fifth of the dimension
	groupCut = 40 // u < 40 keeps 40% of the facts
	sortCut  = 2  // u < 2 keeps 2% of the facts
)

type pipelineWant struct {
	join  [][]string // (f.x, SUM(d.w)), x ascending
	group [][]string // (x, SUM(m)), x ascending
	top   [][]string // the topK largest s, descending
}

type pipelineData struct {
	fk, fx, fu, fm, fs []int32
	dk, dy, dw         []int32
	want               pipelineWant
}

func genPipeline(seed uint64) *pipelineData {
	rng := rand.New(rand.NewPCG(seed, 0x919e))
	p := &pipelineData{}
	for _, col := range []*[]int32{&p.fk, &p.fx, &p.fu, &p.fm, &p.fs} {
		*col = make([]int32, factRows)
	}
	for i := 0; i < factRows; i++ {
		x := rng.Uint64()
		p.fk[i] = int32(x&0xffff) % dimRows
		p.fx[i] = int32(x>>16&0xffff) % 100
		p.fu[i] = int32(x>>32&0xffff) % 100
		p.fm[i] = int32(x>>48) % 1000
		p.fs[i] = rng.Int32N(1 << 30)
	}
	p.dk = make([]int32, dimRows)
	p.dy = make([]int32, dimRows)
	p.dw = make([]int32, dimRows)
	for i, k := range rng.Perm(dimRows) {
		p.dk[i], p.dy[i], p.dw[i] = int32(k), rng.Int32N(100), rng.Int32N(100)
	}

	// The answers, by plain loops over the arrays.
	dimAt := make([]int, dimRows) // key -> dimension row
	for i, k := range p.dk {
		dimAt[k] = i
	}
	var joinSum, groupSum [100]int64
	var joinHit, groupHit [100]bool
	var top []int32
	for i := 0; i < factRows; i++ {
		d := dimAt[p.fk[i]]
		x, u := p.fx[i], p.fu[i]
		if p.dy[d] < joinCut && u < p.dw[d] {
			joinSum[x] += int64(p.dw[d])
			joinHit[x] = true
		}
		if u < groupCut {
			groupSum[x] += int64(p.fm[i])
			groupHit[x] = true
		}
		if u < sortCut {
			top = pushTop(top, p.fs[i])
		}
	}
	p.want.join = groupRows(&joinSum, &joinHit)
	p.want.group = groupRows(&groupSum, &groupHit)
	for _, v := range top {
		p.want.top = append(p.want.top, []string{itoa(int64(v))})
	}
	return p
}

// pushTop keeps the topK largest values, descending.
func pushTop(top []int32, v int32) []int32 {
	if len(top) == topK && v <= top[topK-1] {
		return top
	}
	i := sort.Search(len(top), func(i int) bool { return top[i] < v })
	if len(top) < topK {
		top = append(top, 0)
	}
	copy(top[i+1:], top[i:])
	top[i] = v
	return top
}

func groupRows(sum *[100]int64, hit *[100]bool) [][]string {
	var rows [][]string
	for x := range sum {
		if hit[x] {
			rows = append(rows, []string{itoa(int64(x)), itoa(sum[x])})
		}
	}
	return rows
}

type pipelineInst struct {
	eng  *fusedscan.Engine
	want pipelineWant
}

func setupPipeline(env *setupEnv) (instance, error) {
	data := genPipeline(env.seed)
	eng := fusedscan.NewEngine()
	if err := eng.SetConfig(nativeConfig()); err != nil {
		return nil, err
	}
	err := eng.CreateTable("f").
		Int32("k", data.fk).Int32("x", data.fx).Int32("u", data.fu).Int32("m", data.fm).Int32("s", data.fs).
		Finish()
	if err == nil {
		err = eng.CreateTable("d").Int32("k", data.dk).Int32("y", data.dy).Int32("w", data.dw).Finish()
	}
	if err != nil {
		return nil, err
	}
	return &pipelineInst{eng: eng, want: data.want}, nil
}

func (p *pipelineInst) kinds() []string { return pipelineKinds }

func (p *pipelineInst) pick(c *clientState) int { return int(c.n % int64(len(pipelineKinds))) }

func (p *pipelineInst) do(c *clientState, kind int, ot *opTrace) (time.Duration, error) {
	var sql string
	var want [][]string
	switch pipelineKinds[kind] {
	case "join_group":
		sql = fmt.Sprintf("SELECT f.x, SUM(d.w) FROM f JOIN d ON f.k = d.k AND f.u < d.w WHERE d.y < %d GROUP BY f.x", joinCut)
		want = p.want.join
	case "group":
		sql, want = fmt.Sprintf("SELECT x, SUM(m) FROM f WHERE u < %d GROUP BY x", groupCut), p.want.group
	case "sort_limit":
		sql, want = fmt.Sprintf("SELECT s FROM f WHERE u < %d ORDER BY s DESC LIMIT %d", sortCut, topK), p.want.top
	}
	res, lat, err := query(p.eng, sql, ot)
	if err != nil {
		return lat, err
	}
	return lat, checkRows(res.Rows, want)
}

func (p *pipelineInst) layers(metrics, phases) error { return nil }

func (p *pipelineInst) close() error { return nil }

func (p *pipelineInst) engine() *fusedscan.Engine { return p.eng }
