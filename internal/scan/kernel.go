package scan

import (
	"fmt"

	"fusedscan/internal/mach"
	"fusedscan/internal/vec"
)

// Kernel is a scan implementation: it evaluates its predicate chain against
// real column data while reporting instructions, branches and memory
// accesses to the CPU model.
type Kernel interface {
	Name() string
	Run(cpu *mach.CPU, wantPositions bool) Result
}

// SizeHinter is implemented by kernels that can pre-size their position
// list from the optimizer's cardinality estimate (expected number of
// qualifying rows), avoiding repeated append growth on high-selectivity
// scans. The hint is advisory: results are identical with or without it.
type SizeHinter interface {
	SetSizeHint(rows int)
}

// HintSize pre-sizes kern's position list for a pass over rows rows at the
// estimated selectivity estSel; a no-op without an estimate or for kernels
// that are no SizeHinter.
func HintSize(kern Kernel, estSel float64, rows int) {
	if sh, ok := kern.(SizeHinter); ok && estSel > 0 {
		sh.SetSizeHint(min(int(estSel*float64(rows))+16, rows))
	}
}

// Impl names a benchmark configuration (the legend entries of Figures 4-7).
type Impl uint8

// The six implementations the paper compares.
const (
	ImplSISD Impl = iota
	ImplAutoVec
	ImplAVX2Fused128
	ImplAVX512Fused128
	ImplAVX512Fused256
	ImplAVX512Fused512
	numImpls
)

// AllImpls lists every implementation in the paper's legend order.
func AllImpls() []Impl {
	impls := make([]Impl, numImpls)
	for i := range impls {
		impls[i] = Impl(i)
	}
	return impls
}

func (im Impl) String() string {
	switch im {
	case ImplSISD:
		return "SISD (no vec)"
	case ImplAutoVec:
		return "SISD (auto vec)"
	case ImplAVX2Fused128:
		return "AVX2 Fused (128)"
	case ImplAVX512Fused128:
		return "AVX-512 Fused (128)"
	case ImplAVX512Fused256:
		return "AVX-512 Fused (256)"
	case ImplAVX512Fused512:
		return "AVX-512 Fused (512)"
	default:
		return fmt.Sprintf("impl(%d)", uint8(im))
	}
}

// Build constructs the kernel for an implementation over a chain.
func (im Impl) Build(ch Chain) (Kernel, error) {
	switch im {
	case ImplSISD:
		return NewSISD(ch)
	case ImplAutoVec:
		return NewAutoVec(ch)
	case ImplAVX2Fused128:
		return NewFused(ch, vec.W128, vec.IsaAVX2)
	case ImplAVX512Fused128:
		return NewFused(ch, vec.W128, vec.IsaAVX512)
	case ImplAVX512Fused256:
		return NewFused(ch, vec.W256, vec.IsaAVX512)
	case ImplAVX512Fused512:
		return NewFused(ch, vec.W512, vec.IsaAVX512)
	default:
		return nil, fmt.Errorf("scan: unknown implementation %d", uint8(im))
	}
}
