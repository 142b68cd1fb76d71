package parallel

import (
	"context"
	"testing"

	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

func TestStreamOrderedMergeMatchesReference(t *testing.T) {
	ch := makeChain(t, 100_000, 0.1, 3)
	want := scan.Reference(ch, true)
	for _, cores := range []int{1, 2, 4} {
		for _, morsel := range []int{999, 8192} {
			s, err := NewStream(context.Background(), ch, scan.ImplAVX512Fused512.Build, simulated(cores, morsel))
			if err != nil {
				t.Fatal(err)
			}
			var positions []uint32
			count := 0
			lastBegin := -1
			for {
				m, err := s.Next()
				if err == EOS {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if m.Begin <= lastBegin {
					t.Fatalf("cores=%d: morsel order violated: begin %d after %d", cores, m.Begin, lastBegin)
				}
				lastBegin = m.Begin
				count += m.Res.Count
				for _, p := range m.Res.Positions {
					positions = append(positions, p+uint32(m.Begin))
				}
			}
			s.Close()
			if count != want.Count || len(positions) != len(want.Positions) {
				t.Fatalf("cores=%d morsel=%d: count %d, want %d", cores, morsel, count, want.Count)
			}
			for i := range want.Positions {
				if positions[i] != want.Positions[i] {
					t.Fatalf("cores=%d: position %d differs", cores, i)
				}
			}
		}
	}
}

func TestStreamEarlyCloseCancelsRemainingMorsels(t *testing.T) {
	ch := makeChain(t, 1_000_000, 0.5, 4)
	s, err := NewStream(context.Background(), ch, scan.ImplSISD.Build, simulated(2, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	// Consume one morsel, then abandon the stream (the LIMIT path).
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// The workers must have stopped early: the rows they processed (visible
	// in per-core scalar instruction counts) stay far below a full scan's.
	var full, did uint64
	fs, err := NewStream(context.Background(), ch, scan.ImplSISD.Build, simulated(2, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := fs.Next(); err != nil {
			break
		}
	}
	for _, c := range fs.PerCore() {
		full += c.ScalarInstrs
	}
	for _, c := range s.PerCore() {
		did += c.ScalarInstrs
	}
	if full == 0 {
		t.Fatal("full scan recorded no work")
	}
	if did*4 > full {
		t.Errorf("early close did %d scalar instrs, full scan %d — morsels were not cancelled", did, full)
	}
}

func TestStreamContextCancellation(t *testing.T) {
	ch := makeChain(t, 200_000, 0.5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewStream(ctx, ch, scan.ImplSISD.Build, simulated(2, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	sawErr := false
	for {
		_, err := s.Next()
		if err == EOS {
			break
		}
		if err == context.Canceled {
			sawErr = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawErr {
		t.Error("cancelled stream drained to EOS without surfacing ctx.Err()")
	}
	s.Close()
}

// simulated is the Options of a simulated, position-producing stream.
func simulated(cores, morselRows int) Options {
	p := mach.Default()
	return Options{Cores: cores, MorselRows: morselRows, CPU: mach.New(p), Params: &p, Positions: true}
}

func TestCombineMatchesScanContextModel(t *testing.T) {
	ch := makeChain(t, 100_000, 0.1, 6)
	p := mach.Default()
	res, err := runScan(context.Background(), p, ch, scan.ImplSISD.Build, 4, 10_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCore) != 4 {
		t.Fatalf("per-core counters: %d", len(res.PerCore))
	}
	// Runtime is the slower of the slowest core's compute and the shared
	// memory time.
	var maxCompute float64
	for _, c := range res.PerCore {
		maxCompute = max(maxCompute, (c.ComputeCycles+c.ExposedLatencyCy)/(p.ClockGHz*1e6))
	}
	if res.ComputeMs != maxCompute {
		t.Errorf("ComputeMs = %v, slowest core %v", res.ComputeMs, maxCompute)
	}
	if res.RuntimeMs != max(res.ComputeMs, res.MemMs) || res.RuntimeMs <= 0 {
		t.Errorf("model = %+v, want runtime = max(compute, mem) > 0", res.CombinedModel)
	}
}
