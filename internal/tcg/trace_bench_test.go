package tcg

import (
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// benchHotLoop measures engine throughput on the shared hotLoop program
// at one rung of the translation ladder, reporting retired guest
// instructions per op so the rungs are directly comparable.
func benchHotLoop(b *testing.B, tune func(*Engine)) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: hotLoop})
	if err != nil {
		b.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	e.HotThreshold = 20 // promote early, but with enough branch history for bias
	tune(e)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c := &CPU{PC: im.Entry, TID: 1}
		c.X[isa.RegSP] = 0x40000
		for {
			res := e.Exec(c, 1_000_000_000)
			if res.Reason == StopHalt {
				break
			}
			if res.Reason != StopBudget {
				b.Fatalf("stop %+v", res)
			}
		}
	}
	b.ReportMetric(float64(e.Stats.ExecInsns)/float64(b.N), "insns/op")
}

func BenchmarkHotLoopChained(b *testing.B) {
	benchHotLoop(b, func(e *Engine) { e.NoSuperblock = true })
}
func BenchmarkHotLoopTier3(b *testing.B) { benchHotLoop(b, func(*Engine) {}) }
