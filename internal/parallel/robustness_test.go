package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

func TestScanContextCancelledBeforeStart(t *testing.T) {
	ch := makeChain(t, 10_000, 0.1, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runScan(ctx, mach.Default(), ch, scan.ImplSISD.Build, 2, 1000, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScanCollectsAllBuildErrors: a failed morsel poisons only itself —
// Next reports each failure at its morsel's position and can be called
// again for the rest, so every failure reaches a consumer that keeps
// pulling.
func TestScanCollectsAllBuildErrors(t *testing.T) {
	ch := makeChain(t, 10_000, 0.1, 12)
	calls := 0
	build := func(sub scan.Chain) (scan.Kernel, error) {
		calls++
		if calls%2 == 0 {
			return nil, fmt.Errorf("build failure #%d", calls)
		}
		return scan.NewSISD(sub)
	}
	// 10 morsels on 1 core: build is called sequentially, failing on every
	// even call — 5 distinct errors, each surfacing at its own morsel.
	s, err := NewStream(context.Background(), ch, build, Options{MorselRows: 1000, CPU: mach.New(mach.Default())})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var failed []string
	delivered := 0
	for {
		_, err := s.Next()
		if err == EOS {
			break
		}
		if err != nil {
			failed = append(failed, err.Error())
			continue
		}
		delivered++
	}
	if len(failed) != 5 || delivered != 5 {
		t.Fatalf("failed %d, delivered %d morsels, want 5 and 5: %v", len(failed), delivered, failed)
	}
	for i, want := range []string{"build failure #2", "build failure #4", "build failure #10"} {
		if got := failed[[]int{0, 1, 4}[i]]; !strings.Contains(got, want) {
			t.Errorf("failure %q, want %q", got, want)
		}
	}
}

func TestScanRecoversWorkerPanic(t *testing.T) {
	ch := makeChain(t, 10_000, 0.1, 13)
	var calls atomic.Int64
	build := func(sub scan.Chain) (scan.Kernel, error) {
		if calls.Add(1) == 3 {
			panic("kernel build exploded")
		}
		return scan.NewSISD(sub)
	}
	_, err := runScan(context.Background(), mach.Default(), ch, build, 2, 1000, false)
	if err == nil {
		t.Fatal("expected an error from the panicking morsel")
	}
	if !strings.Contains(err.Error(), "panic: kernel build exploded") {
		t.Errorf("err = %v, want recovered panic message", err)
	}
}

func TestScanFaultInjectedMorselError(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ch := makeChain(t, 10_000, 0.1, 14)

	faultinject.Arm(faultinject.SiteParallelMorsel, 4, faultinject.ModeError)
	_, err := runScan(context.Background(), mach.Default(), ch, scan.ImplSISD.Build, 2, 1000, false)
	if err == nil {
		t.Fatal("expected injected morsel error")
	}
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want to unwrap to *faultinject.Error", err)
	}
	if fe.Site != faultinject.SiteParallelMorsel {
		t.Errorf("site = %q", fe.Site)
	}

	// The same scan succeeds once disarmed.
	faultinject.Reset()
	want := scan.Reference(ch, false)
	res, err := runScan(context.Background(), mach.Default(), ch, scan.ImplSISD.Build, 2, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count {
		t.Fatalf("count = %d, want %d", res.Count, want.Count)
	}
}

func TestScanFaultInjectedMorselPanicIsRecovered(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	ch := makeChain(t, 10_000, 0.1, 15)

	faultinject.Arm(faultinject.SiteParallelMorsel, 1, faultinject.ModePanic)
	_, err := runScan(context.Background(), mach.Default(), ch, scan.ImplSISD.Build, 4, 1000, false)
	if err == nil {
		t.Fatal("expected an error from the injected panic")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Errorf("err = %v, want a recovered-panic error", err)
	}
}

func TestScanContextCancelStopsWorkers(t *testing.T) {
	ch := makeChain(t, 500_000, 0.1, 16)
	ctx, cancel := context.WithCancel(context.Background())
	morselsRun := 0
	build := func(sub scan.Chain) (scan.Kernel, error) {
		morselsRun++
		if morselsRun == 2 {
			cancel() // cancel from inside the scan, mid-flight
		}
		return scan.NewSISD(sub)
	}
	_, err := runScan(ctx, mach.Default(), ch, build, 1, 1000, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if morselsRun >= 500 {
		t.Errorf("all %d morsels ran despite cancellation", morselsRun)
	}
}
