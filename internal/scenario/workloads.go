package scenario

import (
	"fmt"
	"sort"

	"dqemu/internal/image"
	"dqemu/internal/workloads"
)

// argDef bounds one workload argument. Scalable arguments (iteration
// counts, per-thread work) are divided by smokeDiv under Smoke scale and
// clamped back to min, so CI smoke runs stay cheap without changing the
// sharing pattern.
type argDef struct {
	name     string
	def      int64
	min, max int64
	scalable bool
	// perSlave arguments (the partition count of a statically partitioned
	// kernel) default to the cluster size, max(1, slaves), not to def.
	perSlave bool
}

const smokeDiv = 4

// workloadDef is a registry entry: the argument schema plus the builder.
type workloadDef struct {
	args  []argDef
	build func(a map[string]int64) (*image.Image, error)
}

// registry maps Workload.Kind to its definition. Every workload of the
// evaluation is here, so any hand-written experiment's guest is reachable
// from a spec file.
var registry = map[string]workloadDef{
	"pi": {
		args: []argDef{
			{name: "threads", def: 8, min: 1, max: 256},
			{name: "repeats", def: 400, min: 1, max: 1 << 20, scalable: true},
			{name: "terms", def: 100, min: 1, max: 1 << 20},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Pi(int(a["threads"]), int(a["repeats"]), int(a["terms"]))
		},
	},
	"lockbench": {
		args: []argDef{
			{name: "threads", def: 16, min: 1, max: 64},
			{name: "acquires", def: 500, min: 1, max: 1 << 24, scalable: true},
			{name: "private", def: 0, min: 0, max: 1},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.LockBench(int(a["threads"]), int(a["acquires"]), a["private"] != 0)
		},
	},
	"memwalk": {
		args: []argDef{
			{name: "bytes", def: 1 << 20, min: 4096, max: 1 << 28, scalable: true},
			// local walks memory the walking thread itself initialised (the
			// single-node row of Table 1) instead of the main thread's.
			{name: "local", max: 1},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			if a["local"] != 0 {
				return workloads.LocalWalk(int(a["bytes"]))
			}
			return workloads.MemWalk(int(a["bytes"]))
		},
	},
	"racy": {
		args: []argDef{
			{name: "threads", def: 6, min: 2, max: 32},
			{name: "rounds", def: 40, min: 1, max: 1 << 16, scalable: true},
			{name: "seed", def: 1234, max: 1 << 30},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Racy(int(a["threads"]), int(a["rounds"]), a["seed"])
		},
	},
	"falseshare": {
		args: []argDef{
			{name: "threads", def: 16, min: 1, max: 32},
			{name: "nodes", def: 4, min: 1, max: 63},
			{name: "section", def: 128, min: 1, max: 4096},
			{name: "rounds", def: 200, min: 1, max: 1 << 24, scalable: true},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.FalseShare(int(a["threads"]), int(a["nodes"]), int(a["section"]), int(a["rounds"]))
		},
	},
	"blackscholes": {
		args: []argDef{
			{name: "threads", def: 8, min: 1, max: 256},
			{name: "options", def: 1024, min: 1, max: 1 << 20, scalable: true},
			{name: "rounds", def: 10, min: 1, max: 1 << 16, scalable: true},
			{name: "nodes", def: 1, min: 1, max: 63, perSlave: true},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Blackscholes(int(a["threads"]), int(a["options"]), int(a["rounds"]), int(a["nodes"]))
		},
	},
	"swaptions": {
		args: []argDef{
			{name: "threads", def: 8, min: 1, max: 256},
			{name: "swaptions", def: 24, min: 1, max: 1 << 16},
			{name: "trials", def: 120, min: 1, max: 1 << 20, scalable: true},
			{name: "nodes", def: 1, min: 1, max: 63, perSlave: true},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Swaptions(int(a["threads"]), int(a["swaptions"]), int(a["trials"]), int(a["nodes"]))
		},
	},
	"x264": {
		args: []argDef{
			{name: "threads", def: 8, min: 1, max: 256},
			{name: "group", def: 4, min: 1, max: 256},
			{name: "frames", def: 24, min: 2, max: 1 << 16, scalable: true},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.X264(int(a["threads"]), int(a["group"]), int(a["frames"]))
		},
	},
	"fluidanimate": {
		args: []argDef{
			{name: "threads", def: 32, min: 1, max: 256},
			{name: "grid", def: 192, min: 8, max: 4096},
			{name: "iters", def: 6, min: 1, max: 1 << 16, scalable: true},
			{name: "groups", def: 4, min: 1, max: 63, perSlave: true},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Fluidanimate(int(a["threads"]), int(a["grid"]), int(a["iters"]), int(a["groups"]))
		},
	},
	"canneal": {
		args: []argDef{
			{name: "threads", def: 8, min: 1, max: 64},
			{name: "elems", def: 4096, min: 64, max: 1 << 22},
			{name: "steps", def: 300, min: 1, max: 1 << 24, scalable: true},
			{name: "seed", def: 1, min: 0, max: 1 << 30},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Canneal(int(a["threads"]), int(a["elems"]), int(a["steps"]), a["seed"])
		},
	},
	"dedup": {
		args: []argDef{
			{name: "producers", def: 4, min: 1, max: 32},
			{name: "consumers", def: 4, min: 1, max: 32},
			{name: "writers", def: 2, min: 1, max: 32},
			{name: "items", def: 300, min: 1, max: 1 << 24, scalable: true},
			{name: "keyspace", def: 256, min: 2, max: 1 << 20},
			{name: "qcap", def: 16, min: 2, max: 1 << 16},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Dedup(int(a["producers"]), int(a["consumers"]), int(a["writers"]),
				int(a["items"]), int(a["keyspace"]), int(a["qcap"]))
		},
	},
	"phases": {
		args: []argDef{
			{name: "threads", def: 8, min: 2, max: 64},
			{name: "iters", def: 8, min: 1, max: 1 << 16, scalable: true},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Phases(int(a["threads"]), int(a["iters"]))
		},
	},
	"streamcluster": {
		args: []argDef{
			{name: "threads", def: 8, min: 1, max: 63},
			{name: "points", def: 2048, min: 64, max: 1 << 22},
			{name: "centers", def: 8, min: 1, max: 64},
			{name: "iters", def: 8, min: 1, max: 1 << 16, scalable: true},
		},
		build: func(a map[string]int64) (*image.Image, error) {
			return workloads.Streamcluster(int(a["threads"]), int(a["points"]), int(a["centers"]), int(a["iters"]))
		},
	},
}

// Kinds lists the registered workload kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resolve merges defaults with the spec's overrides, validates names and
// ranges, and applies scale. It never builds the image (Validate calls it
// on untrusted input).
func (w *Workload) resolve(scale Scale, slaves int) (map[string]int64, error) {
	def, ok := registry[w.Kind]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown workload kind %q (have %v)", w.Kind, Kinds())
	}
	byName := map[string]argDef{}
	merged := map[string]int64{}
	for _, a := range def.args {
		byName[a.name] = a
		merged[a.name] = a.def
		if a.perSlave {
			merged[a.name] = int64(max(1, slaves))
		}
	}
	for name, v := range w.Args {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("scenario: workload %s has no argument %q", w.Kind, name)
		}
		if v < a.min || v > a.max {
			return nil, fmt.Errorf("scenario: %s.%s = %d outside [%d, %d]", w.Kind, name, v, a.min, a.max)
		}
		merged[name] = v
	}
	if scale == Smoke {
		for _, a := range def.args {
			if !a.scalable {
				continue
			}
			v := merged[a.name] / smokeDiv
			if v < a.min {
				v = a.min
			}
			merged[a.name] = v
		}
	}
	return merged, nil
}

// buildImage compiles the workload at the given scale.
func (w *Workload) buildImage(scale Scale, slaves int) (*image.Image, error) {
	args, err := w.resolve(scale, slaves)
	if err != nil {
		return nil, err
	}
	return registry[w.Kind].build(args)
}
