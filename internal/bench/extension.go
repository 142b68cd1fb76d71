package bench

import (
	"context"
	"fmt"
	"time"

	"fusedscan/internal/mach"
	"fusedscan/internal/parallel"
	"fusedscan/internal/scan"
	"fusedscan/internal/stats"
	"fusedscan/internal/workload"
)

// ExtensionNativeResult holds the wall-clock comparison of the native
// SWAR turbo path against the emulated fused kernel: real elapsed
// milliseconds (not simulated), so numbers vary with the host machine —
// only the speedup ratios are meaningful across machines.
type ExtensionNativeResult struct {
	Rows    int
	Sels    []float64
	NatMs   []float64
	EmulMs  []float64
	Speedup []float64
}

// ExtensionNative times the native kernels for real across selectivities
// on a two-predicate COUNT(*). The emulated kernel pays for the machine
// model on every lane; the native path runs the generated SWAR kernels
// straight over the column bytes, which is where the 10x+ gap comes from.
func ExtensionNative(cfg Config) ExtensionNativeResult {
	rows := cfg.rows(fig5PaperRows)
	res := ExtensionNativeResult{Rows: rows, Sels: []float64{0.01, 0.1, 0.5, 0.9}}
	for _, sel := range res.Sels {
		s := sel
		m := medianOver(cfg.reps(), cfg.Seed, func(seed int64) []float64 {
			space := mach.NewAddrSpace()
			ch := workload.Uniform(space, rows, 2, s, seed)
			nat, err := scan.NewNative(ch)
			if err != nil {
				panic(err)
			}
			emul, err := scan.ImplAVX512Fused512.Build(ch)
			if err != nil {
				panic(err)
			}
			t0 := time.Now()
			nat.Run(nil, false)
			natMs := float64(time.Since(t0).Nanoseconds()) / 1e6
			t1 := time.Now()
			emul.Run(mach.New(cfg.Params), false)
			emulMs := float64(time.Since(t1).Nanoseconds()) / 1e6
			return []float64{natMs, emulMs}
		})
		res.NatMs = append(res.NatMs, m[0])
		res.EmulMs = append(res.EmulMs, m[1])
		res.Speedup = append(res.Speedup, m[1]/m[0])
	}

	w := cfg.out()
	header(w, "Extension E2", fmt.Sprintf("native SWAR turbo path, wall-clock (%s rows, 2 predicates)",
		stats.FormatRows(rows)))
	fmt.Fprintf(w, "%-12s %14s %14s %10s\n", "selectivity", "native(ms)", "emulated(ms)", "speedup")
	for i, s := range res.Sels {
		fmt.Fprintf(w, "%-12.2f %14.3f %14.3f %9.1fx\n", s, res.NatMs[i], res.EmulMs[i], res.Speedup[i])
	}
	return res
}

// ExtensionParallelResult holds the multi-core scaling numbers of the
// morsel-driven extension: speedup over one core for the compute-bound
// scalar scan and the memory-bound fused scan.
type ExtensionParallelResult struct {
	Rows         int
	Cores        []int
	SISDMs       []float64
	FusedMs      []float64
	SISDSpeedup  []float64
	FusedSpeedup []float64
	SocketLimit  float64 // socket BW / per-core BW: the memory-bound ceiling
}

// ExtensionParallel sweeps core counts at 50% selectivity. The scalar scan
// (misprediction-bound) should scale ~linearly; the fused scan should
// saturate at the socket-bandwidth ceiling.
func ExtensionParallel(cfg Config) ExtensionParallelResult {
	rows := cfg.rows(fig5PaperRows)
	res := ExtensionParallelResult{
		Rows:        rows,
		Cores:       []int{1, 2, 4, 8, 16},
		SocketLimit: cfg.Params.SocketBandwidthGBs / cfg.Params.StreamBandwidthGBs,
	}
	morsel := rows / 32
	if morsel < 1000 {
		morsel = 1000
	}
	for _, cores := range res.Cores {
		c := cores
		m := medianOver(cfg.reps(), cfg.Seed, func(seed int64) []float64 {
			space := mach.NewAddrSpace()
			ch := workload.Uniform(space, rows, 2, 0.5, seed)
			return []float64{
				parallelRuntimeMs(cfg.Params, ch, scan.ImplSISD.Build, c, morsel),
				parallelRuntimeMs(cfg.Params, ch, scan.ImplAVX512Fused512.Build, c, morsel),
			}
		})
		res.SISDMs = append(res.SISDMs, m[0])
		res.FusedMs = append(res.FusedMs, m[1])
	}
	for i := range res.Cores {
		res.SISDSpeedup = append(res.SISDSpeedup, res.SISDMs[0]/res.SISDMs[i])
		res.FusedSpeedup = append(res.FusedSpeedup, res.FusedMs[0]/res.FusedMs[i])
	}

	w := cfg.out()
	header(w, "Extension E1", fmt.Sprintf("morsel-driven multi-core scaling (%s rows, 50%% selectivity; socket ceiling %.1f cores)",
		stats.FormatRows(rows), res.SocketLimit))
	fmt.Fprintf(w, "%-8s %14s %10s %14s %10s\n", "cores", "SISD(ms)", "speedup", "Fused512(ms)", "speedup")
	for i, c := range res.Cores {
		fmt.Fprintf(w, "%-8d %14.3f %9.2fx %14.3f %9.2fx\n",
			c, res.SISDMs[i], res.SISDSpeedup[i], res.FusedMs[i], res.FusedSpeedup[i])
	}
	return res
}

// parallelRuntimeMs drives a count-only scan of ch through the morsel
// driver on `cores` simulated cores and returns the shared-socket model's
// runtime over the cores' counters.
func parallelRuntimeMs(params mach.Params, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), cores, morselRows int) float64 {
	cpu := mach.New(params)
	s, err := parallel.NewStream(context.Background(), ch, build,
		parallel.Options{Cores: cores, MorselRows: morselRows, CPU: cpu, Params: &params})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	for {
		if _, err := s.Next(); err == parallel.EOS {
			break
		} else if err != nil {
			panic(err)
		}
	}
	perCore := s.PerCore()
	if perCore == nil {
		// One core ran every morsel inline on cpu.
		perCore = []mach.Counters{cpu.Finish()}
	}
	return parallel.Combine(params, perCore).RuntimeMs
}
