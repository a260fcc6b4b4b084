package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"dqemu/internal/core"
	"dqemu/internal/image"
)

// reference is the pinned outcome of one guest program: exit code and the
// SHA-256 of its console output.
type reference struct {
	Exit int64  `json:"exit"`
	SHA  string `json:"sha256"`
}

func sha(console string) string {
	sum := sha256.Sum256([]byte(console))
	return hex.EncodeToString(sum[:])
}

// expectedJSON pins, per scale and "workload/input", the reference for the
// default seed. It is generated once by -regen-expected from a single-node
// interpreter run (Config.Interp: no translation cache, no tiers, no DSM),
// so it never runs in the timed path.
//
//go:embed expected.json
var expectedJSON []byte

type expectedFile map[string]map[string]reference // scale -> workload/input -> reference

func loadExpected() (expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("decoding expected.json: %w", err)
	}
	return e, nil
}

// pinned returns the pinned reference of workload/input at a scale.
func (e expectedFile) pinned(scale, key string) (reference, error) {
	ref, ok := e[scale][key]
	if !ok {
		return ref, fmt.Errorf("expected.json has no %s entry for %s; run -regen-expected", scale, key)
	}
	return ref, nil
}

// interpReferences computes, for the default seed at one scale, what
// expected.json pins: the interpreter's outcome of every simulated input
// and of every job template that ships a prebuilt image (source templates
// predict their own reference).
func interpReferences(smoke bool) (map[string]reference, error) {
	o := options{seed: defaultSeed, smoke: smoke, log: io.Discard}
	images := map[string]*image.Image{}
	for i := range workloadTable {
		w := &workloadTable[i]
		if w.Sim != nil {
			d := &simDriver{w: w, o: o}
			if err := d.setup(nil); err != nil {
				return nil, err
			}
			for _, p := range d.inputs {
				images[w.Name+"/"+p.in.Name] = p.im
			}
			continue
		}
		for j := range w.Jobs.Templates {
			tpl := &w.Jobs.Templates[j]
			if tpl.Build == nil {
				continue
			}
			im, err := tpl.Build(smoke)
			if err != nil {
				return nil, err
			}
			images[w.Name+"/"+tpl.Name] = im
		}
	}
	refs := map[string]reference{}
	for key, im := range images {
		ref, err := interpReference(im)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		refs[key] = ref
	}
	return refs, nil
}

// interpReference runs im on one node under the interpreter.
func interpReference(im *image.Image) (reference, error) {
	cfg := core.DefaultConfig()
	cfg.Interp = true
	res, err := core.Run(im, cfg)
	if err != nil {
		return reference{}, fmt.Errorf("interpreter reference run: %w", err)
	}
	return reference{Exit: res.ExitCode, SHA: sha(res.Console)}, nil
}

// check compares one outcome with its reference.
func (r reference) check(exit int64, console string) bool {
	return exit == r.Exit && sha(console) == r.SHA
}
