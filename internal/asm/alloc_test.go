package asm_test

import (
	"runtime"
	"strings"
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/grt"
	"dqemu/internal/minicc"
)

// largeSources is the runtime plus a generated 300-function program: the
// benchmark's cold_code input in shape and size.
func largeSources(tb testing.TB) (sources []asm.Source, lines int) {
	tb.Helper()
	userAsm, err := minicc.Compile("gen.mc", grt.Prelude+goldenManyFuncs(1, 300))
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := grt.RuntimeSources()
	if err != nil {
		tb.Fatal(err)
	}
	sources = append(rt, asm.Source{Name: "gen.s", Text: userAsm})
	for _, s := range sources {
		lines += strings.Count(s.Text, "\n")
	}
	return sources, lines
}

// TestAssembleAllocsPerLine pins the assembler's steady state: a line is
// scanned in place and encoded into its section's buffer, so what is
// allocated is the buffers, the tables and the fixups as they grow — well
// under one object per line (the two-pass assembler made ≈7).
func TestAssembleAllocsPerLine(t *testing.T) {
	sources, lines := largeSources(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := asm.Assemble(sources...); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects for %d lines: %.3f per line", allocs, lines, allocs/float64(lines))
	if allocs > float64(lines) {
		t.Errorf("%.0f heap objects for %d source lines, want at most one per line", allocs, lines)
	}
}

// TestHugeReserveAllocatesNothingLarge: a reserved byte is not an allocated
// byte. A one-line .space (or .align) of 256 GiB used to be materialised —
// in .bss too, to check it was zero — and killed the process; now it is a
// diagnostic with file:line, made before anything is allocated.
func TestHugeReserveAllocatesNothingLarge(t *testing.T) {
	const limit = "the 67108864-byte limit (image.MaxMemBytes)"
	for name, c := range map[string]struct{ src, want string }{
		"bss":         {"\t.bss\nbig: .space 0x4000000000\n", "huge.s:2: .space: 274877906944 more bytes take the image over " + limit},
		"data":        {"\t.data\nbig: .space 0x4000000000\n", "huge.s:2: .space: 274877906944 more bytes take the image over " + limit},
		"data filled": {"\t.data\n\t.space 0x4000000000, 0xff\n", "huge.s:2: .space: 274877906944 more bytes take the image over " + limit},
		"max int64":   {"\t.bss\n\t.space 0x7fffffffffffffff\n", "huge.s:2: .space: 9223372036854775807 more bytes take the image over " + limit},
		"sum":         {"\t.bss\n\t.space 40<<20\n\t.data\n\t.space 40<<20\n", "huge.s:4: .space: 41943040 more bytes take the image over " + limit},
		"align":       {"\t.data\n\t.byte 1\n\t.align 0x4000000000\n", "huge.s:3: .align: 274877906943 more bytes take the image over " + limit},
		"mini-C":      {"", "grt: assembling big.mc: big.mc:1: .space: "},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if name == "mini-C" {
			_, err = grt.BuildProgram("big.mc", "long big[34359738368];\nlong main() { return 0; }\n")
		} else {
			_, err = asm.Assemble(asm.Source{Name: "huge.s", Text: c.src})
		}
		runtime.ReadMemStats(&after)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) || !strings.HasSuffix(err.Error(), limit) {
			t.Errorf("%s: error %v, want %q", name, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: allocated %d bytes on the way to the diagnostic, want at most 1 MiB", name, got)
		}
	}
	// Under the limit a reservation is still only a cursor in .bss.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	im, err := asm.Assemble(asm.Source{Name: "ok.s", Text: "_start:\thalt\n\t.bss\nbuf: .space 48<<20\n"})
	runtime.ReadMemStats(&after)
	if err != nil || im.End()-im.Symbols["buf"] != 48<<20 {
		t.Fatalf("48 MiB of .bss: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("48 MiB of .bss allocated %d bytes", got)
	}
}

func BenchmarkAssembleLarge(b *testing.B) {
	sources, lines := largeSources(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(sources...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
}

// BenchmarkBuildLarge is what a job of the cold shape costs end to end:
// grt.BuildProgram, the mini-C compiled straight into the assembler after
// the runtime's prefix, then linked.
func BenchmarkBuildLarge(b *testing.B) {
	src := goldenManyFuncs(1, 300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := grt.BuildProgram("gen.mc", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileLarge(b *testing.B) {
	src := grt.Prelude + goldenManyFuncs(1, 300)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minicc.Compile("gen.mc", src); err != nil {
			b.Fatal(err)
		}
	}
}
