package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fingerprint identifies the host a run measured; every run prints it
// before its result line.
type fingerprint struct {
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes is the size of cpu0's highest-level cache as sysfs reports it,
// or 0 when sysfs is unavailable.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best, level int64
	for _, d := range dirs {
		lv := readInt(filepath.Join(d, "level"))
		size := readSize(filepath.Join(d, "size"))
		if lv > level || (lv == level && size > best) {
			best, level = size, lv
		}
	}
	return best
}

func readInt(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n, _ := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	return n
}

// readSize parses sysfs cache sizes such as "107520K" or "4M".
func readSize(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}

// hostProbe holds the two calibration loops a traced run measures: the
// paper's Fig. 2 sequential-read ceiling and a fixed scalar loop.
type hostProbe struct {
	memReadGBs float64
	scalarNs   float64
}

// probeHost measures sequential-read bandwidth over a buffer four times
// the LLC (at least 256 MiB), read by GOMAXPROCS goroutines as the
// engine's scans are, best of three passes; and the time of one step of
// a dependent multiply-add chain.
func probeHost(llc int64) hostProbe {
	size := 4 * llc
	if size < 256<<20 {
		size = 256 << 20
	}
	buf := make([]uint64, size/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		sumParallel(buf, runtime.GOMAXPROCS(0))
		if gbs := float64(size) / float64(time.Since(start).Nanoseconds()); gbs > best {
			best = gbs
		}
	}
	buf = nil
	runtime.GC()

	const steps = 50_000_000
	start := time.Now()
	scalarSink = scalarLoop(steps)
	return hostProbe{memReadGBs: best, scalarNs: float64(time.Since(start).Nanoseconds()) / steps}
}

func (h hostProbe) report(m metrics) {
	m.set("host.mem_read_gbs", h.memReadGBs, "GB/s")
	m.set("host.scalar_ns", h.scalarNs, "ns")
}

var sumSink, scalarSink uint64

func sumParallel(buf []uint64, workers int) {
	var wg sync.WaitGroup
	sums := make([]uint64, workers)
	per := (len(buf) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, min((w+1)*per, len(buf))
		wg.Add(1)
		go func(w int, part []uint64) {
			defer wg.Done()
			var a, b, c, d uint64
			for i := 0; i+4 <= len(part); i += 4 {
				a += part[i]
				b += part[i+1]
				c += part[i+2]
				d += part[i+3]
			}
			sums[w] = a + b + c + d
		}(w, buf[lo:hi])
	}
	wg.Wait()
	for _, s := range sums {
		sumSink += s
	}
}

func scalarLoop(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}
