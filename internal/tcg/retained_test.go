package tcg

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dqemu/internal/abi"
	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// TestEngineSize: an Engine is made once per node per job, and Go allocates
// anything over 32 KiB as a large object of its own, rounded up to whole
// pages (the 34,448-byte Engine of e2cca87 cost 40,960 bytes).
func TestEngineSize(t *testing.T) {
	const limit = 32 << 10
	if size := unsafe.Sizeof(Engine{}); size > limit {
		typ := reflect.TypeOf(Engine{})
		fields := make([]reflect.StructField, typ.NumField())
		for i := range fields {
			fields[i] = typ.Field(i)
		}
		slices.SortFunc(fields, func(a, b reflect.StructField) int { return int(b.Type.Size()) - int(a.Type.Size()) })
		var top []string
		for _, f := range fields[:3] {
			top = append(top, fmt.Sprintf("%s (%d B)", f.Name, f.Type.Size()))
		}
		t.Errorf("Engine is %d bytes, over Go's %d-byte small-object limit; largest fields: %s",
			size, limit, strings.Join(top, ", "))
	}
}

// coldSource is the program bench/coldgen.go's genCold emits for cold_code:
// funcs straight-line functions of stmts statements over four locals, every
// one called from main reps times over.
func coldSource(seed int64, funcs, stmts, reps int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "long f%d(long x) {\n\tlong v0 = x;\n\tlong v1 = x + %d;\n\tlong v2 = x ^ %d;\n\tlong v3 = %d;\n",
			f, f+1, 7*f+3, 11*f+5)
		for i := 0; i < stmts; i++ {
			dst, a, op := rng.Intn(4), rng.Intn(4), "+-*^&|lr"[rng.Intn(8)]
			var rhs string
			switch op {
			case 'l', 'r':
				rhs = fmt.Sprint(1 + rng.Int63n(13))
			case '&':
				rhs = fmt.Sprint(rng.Int63n(1<<30) | 0x2aaa5555)
			default:
				if rng.Intn(2) == 0 {
					rhs = fmt.Sprintf("v%d", rng.Intn(4))
				} else {
					rhs = fmt.Sprint(1 + rng.Int63n(1<<20))
				}
			}
			sym := map[byte]string{'l': "<<", 'r': ">>"}[op]
			if sym == "" {
				sym = string(op)
			}
			fmt.Fprintf(&sb, "\tv%d = v%d %s %s;\n", dst, a, sym, rhs)
		}
		sb.WriteString("\treturn x * 3 + v0 + v1 + v2 + v3;\n}\n")
	}
	fmt.Fprintf(&sb, "long main() {\n\tlong acc = %d;\n\tfor (long r = 0; r < %d; r++) {\n", seed, reps)
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "\t\tacc = f%d(acc);\n", f)
	}
	sb.WriteString("\t}\n\tprint_str(\"acc=\");\n\tprint_long(acc);\n\tprint_char('\\n');\n\treturn acc & 63;\n}\n")
	return sb.String()
}

// coldEngine returns an engine and a CPU at the entry of a grt program,
// with a stack.
func coldEngine(t *testing.T, name, src string) (*Engine, *CPU) {
	t.Helper()
	space, cpu := loadProgram(t, name, src)
	return NewEngine(space, DefaultCostModel()), cpu
}

// loadProgram builds a grt program into a fresh Space with a stack and
// returns it with a CPU at its entry.
func loadProgram(t *testing.T, name, src string) (*mem.Space, *CPU) {
	t.Helper()
	im, err := grt.BuildProgram(name, src)
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	for p := uint64(image.StackTop - 16*space.PageSize()); p < image.StackTop; p += uint64(space.PageSize()) {
		space.SetPerm(space.PageOf(p), mem.PermReadWrite)
	}
	cpu := &CPU{PC: im.Entry, TID: 1}
	cpu.X[isa.RegSP] = image.StackTop
	return space, cpu
}

// runToExit runs a grt program to its exit and returns its exit code and
// what it wrote, answering every other syscall with 0.
func runToExit(t *testing.T, e *Engine, cpu *CPU) (int64, string) {
	t.Helper()
	var out []byte
	for {
		switch res := e.Exec(cpu, 1_000_000); res.Reason {
		case StopBudget:
		case StopSyscall:
			switch cpu.X[isa.RegA7] {
			case abi.SysExit, abi.SysExitGroup:
				return int64(cpu.X[isa.RegA0]), string(out)
			case abi.SysWrite:
				buf := make([]byte, cpu.X[isa.RegA2])
				if err := e.Mem.ReadBytes(cpu.X[isa.RegA1], buf); err != nil {
					t.Fatal(err)
				}
				out = append(out, buf...)
				cpu.X[isa.RegA0] = cpu.X[isa.RegA2]
			default:
				cpu.X[isa.RegA0] = 0
			}
		default:
			t.Fatalf("stop: %+v", res)
		}
	}
}

// TestTraceRetainedBytes holds what one engine allocates per guest
// instruction it translates, on cold_code's largest input: the cold-code
// generator's 300-function program called 120 times over (cold120), run to
// its exit. Nearly every byte is a translation the engine keeps — blocks,
// compiled traces — so this is what a translated instruction costs to hold.
func TestTraceRetainedBytes(t *testing.T) {
	// Measured at this commit, and at e2cca87 (the parent), where a compiled
	// trace kept its uop array and a block the address of each instruction.
	const measured, parent = 36.4, 76.2
	e, cpu := coldEngine(t, "cold120.mc", coldSource(1, 300, 15, 120))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runToExit(t, e, cpu)
	runtime.ReadMemStats(&after)
	if e.Stats.Tier3Superblocks < 300 || e.Stats.ExecInsns < 1_000_000 {
		t.Fatalf("the program did not run as cold120 does: %+v", e.Stats)
	}
	perInsn := float64(after.TotalAlloc-before.TotalAlloc) / float64(e.Stats.TranslatedInsns)
	t.Logf("%.1f B per translated instruction over %d (%d blocks, %d traces); %.1f at the parent",
		perInsn, e.Stats.TranslatedInsns, e.Stats.Blocks, e.Stats.Superblocks, parent)
	if perInsn > measured*1.25 {
		t.Errorf("%.1f B per translated instruction, over %.1f (measured %.1f plus a quarter; the parent's %.1f)",
			perInsn, measured*1.25, measured, parent)
	}
}

// TestColdPathAllocs pins what the cold path allocates. Translating a block
// makes the block and its instructions, and nothing for their addresses. A
// memory run makes its closure and takes its accesses from the engine's
// slab, so promoting a loop with a run of t3MemRun stores costs what
// promoting one with a run of one does, give or take the slab's refills.
func TestColdPathAllocs(t *testing.T) {
	_, e, _, im := setupImage(t, hotLoops)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := e.translate(im.Entry); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("translating one block allocates %v objects, want at most 2 (block, ops)", n)
	}

	promotion := func(run int) float64 {
		var src strings.Builder
		src.WriteString("_start:\n\tli s1, 0\n\tli s2, 300\n\tli s3, 0x20000\n\tj loop\nloop:\n")
		for k := 0; k < run; k++ {
			fmt.Fprintf(&src, "\tsd s1, %d(s3)\n", 8*k)
		}
		src.WriteString("\taddi s1, s1, 1\n\tslt t0, s1, s2\n\tbnez t0, loop\n\thalt\n")
		_, e, cpu, im := setupImage(t, src.String())
		e.HotThreshold = 2
		if res := runToStop(t, e, cpu); res.Reason != StopHalt {
			t.Fatalf("stop: %+v", res)
		}
		head := e.cache[im.Symbols["loop"]]
		if head == nil || head.sb == nil {
			t.Fatalf("the loop with a run of %d was not compiled", run)
		}
		var spent int64
		return testing.AllocsPerRun(100, func() {
			if !e.promote(head, &spent) {
				t.Fatal("promotion refused")
			}
		})
	}
	one, wide := promotion(1), promotion(t3MemRun)
	if wide-one >= 1 {
		t.Errorf("promoting a run of %d accesses allocates %.2f objects, a run of one %.2f: %.2f per further access, want none",
			t3MemRun, wide, one, (wide-one)/(t3MemRun-1))
	}
}
