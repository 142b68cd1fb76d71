package parallel

import (
	"context"
	"math/rand"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

func makeChain(t *testing.T, n int, sel float64, seed int64) scan.Chain {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := mach.NewAddrSpace()
	var ch scan.Chain
	for j := 0; j < 2; j++ {
		vals := make([]int32, n)
		for i := range vals {
			if rng.Float64() < sel {
				vals[i] = 5
			} else {
				vals[i] = rng.Int31n(100) + 10
			}
		}
		col := column.FromInt32s(space, string(rune('a'+j)), vals)
		ch = append(ch, scan.Pred{Col: col, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 5)})
	}
	return ch
}

// scanResult is a drained stream: the merged count and absolute
// positions, each core's counters and the shared-socket model over them.
type scanResult struct {
	CombinedModel
	Count     int
	Positions []uint32
	PerCore   []mach.Counters
}

// runScan drains a simulated stream over ch into one result. A one-core
// run charges a fresh inline CPU, reported as the single core.
func runScan(ctx context.Context, params mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores, morselRows int, wantPositions bool) (*scanResult, error) {
	cpu := mach.New(params)
	s, err := NewStream(ctx, ch, build, Options{
		Cores: cores, MorselRows: morselRows, CPU: cpu, Params: &params, Positions: wantPositions,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out := &scanResult{}
	for {
		m, err := s.Next()
		if err == EOS {
			break
		}
		if err != nil {
			return nil, err
		}
		out.Count += m.Res.Count
		for _, p := range m.Res.Positions {
			out.Positions = append(out.Positions, p+uint32(m.Begin))
		}
	}
	if out.PerCore = s.PerCore(); out.PerCore == nil {
		out.PerCore = []mach.Counters{cpu.Finish()}
	}
	out.CombinedModel = Combine(params, out.PerCore)
	return out, nil
}

func TestParallelScanMatchesSequential(t *testing.T) {
	ch := makeChain(t, 100_000, 0.1, 1)
	want := scan.Reference(ch, true)
	for _, cores := range []int{1, 2, 4, 8} {
		for _, morsel := range []int{1000, 7777, 1_000_000} {
			res, err := runScan(context.Background(), mach.Default(), ch, scan.ImplAVX512Fused512.Build, cores, morsel, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != want.Count || len(res.Positions) != len(want.Positions) {
				t.Fatalf("cores=%d morsel=%d: count %d, want %d", cores, morsel, res.Count, want.Count)
			}
			for i := range want.Positions {
				if res.Positions[i] != want.Positions[i] {
					t.Fatalf("cores=%d: position %d differs", cores, i)
				}
			}
		}
	}
}

func TestParallelComputeBoundScaling(t *testing.T) {
	// At 50% selectivity the SISD kernel is heavily compute-bound
	// (mispredictions), so doubling cores should roughly halve runtime.
	ch := makeChain(t, 400_000, 0.5, 2)
	p := mach.Default()
	r1, err := runScan(context.Background(), p, ch, scan.ImplSISD.Build, 1, 50_000, false)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := runScan(context.Background(), p, ch, scan.ImplSISD.Build, 4, 50_000, false)
	if err != nil {
		t.Fatal(err)
	}
	speedup := r1.RuntimeMs / r4.RuntimeMs
	if speedup < 2.5 || speedup > 4.5 {
		t.Errorf("4-core compute-bound speedup %.2fx, want ~4x", speedup)
	}
}

func TestParallelBandwidthSaturation(t *testing.T) {
	// The fused scan at low selectivity is memory-bound: scaling stops at
	// SocketBandwidth / per-core bandwidth (~6.7 cores by default).
	ch := makeChain(t, 2_000_000, 0.0001, 3)
	p := mach.Default()
	r1, err := runScan(context.Background(), p, ch, scan.ImplAVX512Fused512.Build, 1, 100_000, false)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := runScan(context.Background(), p, ch, scan.ImplAVX512Fused512.Build, 16, 100_000, false)
	if err != nil {
		t.Fatal(err)
	}
	maxSpeedup := p.SocketBandwidthGBs / p.StreamBandwidthGBs
	got := r1.RuntimeMs / r16.RuntimeMs
	if got > maxSpeedup*1.05 {
		t.Errorf("16-core memory-bound speedup %.2fx exceeds the %.2fx socket ceiling", got, maxSpeedup)
	}
	if got < maxSpeedup*0.8 {
		t.Errorf("16-core memory-bound speedup %.2fx, want close to the %.2fx ceiling", got, maxSpeedup)
	}
	if r16.AggregateGBs > p.SocketBandwidthGBs*1.01 {
		t.Errorf("achieved %.1f GB/s exceeds the socket's %.1f", r16.AggregateGBs, p.SocketBandwidthGBs)
	}
}

func TestParallelErrors(t *testing.T) {
	ch := makeChain(t, 100, 0.5, 4)
	p := mach.Default()
	// Zero cores means single-core: every morsel runs inline.
	if res, err := runScan(context.Background(), p, ch, scan.ImplSISD.Build, 0, 10, false); err != nil {
		t.Errorf("0 cores: %v", err)
	} else if want := scan.Reference(ch, false); res.Count != want.Count {
		t.Errorf("0 cores: count %d, want %d", res.Count, want.Count)
	}
	if _, err := runScan(context.Background(), p, ch, scan.ImplSISD.Build, 2, 0, false); err == nil {
		t.Error("0 morsel rows accepted")
	}
	if _, err := runScan(context.Background(), p, scan.Chain{}, scan.ImplSISD.Build, 2, 10, false); err == nil {
		t.Error("empty chain accepted")
	}
	badBuild := func(scan.Chain) (scan.Kernel, error) { return nil, errBoom }
	if _, err := runScan(context.Background(), p, ch, badBuild, 2, 10, false); err == nil {
		t.Error("builder error swallowed")
	}
}

type boomErr struct{}

func (boomErr) Error() string { return "boom" }

var errBoom = boomErr{}

func TestParallelPerCoreCounters(t *testing.T) {
	ch := makeChain(t, 50_000, 0.1, 5)
	res, err := runScan(context.Background(), mach.Default(), ch, scan.ImplAVX512Fused512.Build, 3, 5000, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 3 {
		t.Fatalf("per-core counters: %d", len(res.PerCore))
	}
	var total uint64
	for _, c := range res.PerCore {
		total += c.VecInstrs
	}
	if total == 0 {
		t.Error("no work recorded on any core")
	}
}
