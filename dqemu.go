// Package dqemu is a Go reproduction of DQEMU, the distributed dynamic
// binary translator of Zhao et al., "DQEMU: A Scalable Emulator with
// Retargetable DBT on Distributed Platforms" (ICPP 2020).
//
// DQEMU runs the threads of one guest binary across a cluster of emulator
// nodes: a master owning a page-level directory-based MSI coherence
// protocol, delegated syscalls and thread placement, plus any number of
// slaves. The paper's optimizations — page splitting against false sharing,
// data forwarding (read-ahead pushes), and hint-based locality-aware
// scheduling — are all implemented and individually switchable.
//
// The cluster executes inside a deterministic discrete-event simulation
// calibrated to the paper's testbed (quad-core nodes, 1 Gb/s Ethernet,
// ~55 µs RTT); results are reported in virtual time. Guest programs target
// the GA64 ISA and are produced either with the built-in assembler or the
// mini-C compiler:
//
//	im, err := dqemu.Compile("hello.mc", `
//	long main() {
//		print_str("hello from the cluster\n");
//		return 0;
//	}`)
//	if err != nil { ... }
//	cfg := dqemu.DefaultConfig()
//	cfg.Slaves = 4
//	res, err := dqemu.Run(im, cfg)
//	fmt.Print(res.Console)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's tables and figures (also runnable through
// cmd/dqemu-bench).
package dqemu

import (
	"fmt"
	"os"
	"strings"

	"dqemu/internal/asm"
	"dqemu/internal/core"
	"dqemu/internal/grt"
	"dqemu/internal/image"
)

// Config describes a cluster: its embedded Shape (node and core counts,
// quantum, page size), the network model, and the switches of its embedded
// Knobs (Forwarding, Splitting, HintSched, the ablations and the
// observability layers).
type Config = core.Config

// Result reports a finished run: exit code, virtual wall time, console
// output, and per-thread/per-node/protocol statistics.
type Result = core.Result

// Cluster is a loaded guest program plus its simulated cluster. Use it
// instead of Run when the guest needs VFS input files.
type Cluster = core.Cluster

// Image is a loadable guest binary.
type Image = image.Image

// ThreadStats is the per-thread execution/page-fault/syscall breakdown.
type ThreadStats = core.ThreadStats

// NodeStats is the per-node activity summary.
type NodeStats = core.NodeStats

// Source is one assembly input file.
type Source = asm.Source

// DefaultConfig mirrors the paper's testbed: a single node (the QEMU
// baseline) with four cores on gigabit Ethernet; set Slaves and the
// optimization flags to scale out.
func DefaultConfig() Config { return core.DefaultConfig() }

// Compile builds a guest image from mini-C source linked against the guest
// runtime (threads, mutexes, barriers, malloc, console I/O — see
// internal/grt.Prelude for the API available to guest code).
func Compile(name, src string) (*Image, error) {
	return grt.BuildProgram(name, src)
}

// CompileToAsm translates mini-C to GA64 assembly text without assembling,
// for inspection or further processing. Compile builds from the same
// instructions without printing them; Assemble of this text gives its image.
func CompileToAsm(name, src string) (string, error) {
	return grt.CompileProgram(name, src)
}

// Assemble builds a guest image from raw GA64 assembly sources linked
// against the guest runtime.
func Assemble(sources ...Source) (*Image, error) {
	return grt.BuildAsmProgram(sources...)
}

// Load builds the guest image a program file names by its suffix: mini-C
// source (.mc) goes through Compile, GA64 assembly (.s) through Assemble, and
// a prebuilt image (.img, from dqemu-cc/dqemu-asm) is decoded.
func Load(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".mc"):
		return Compile(path, string(data))
	case strings.HasSuffix(path, ".s"):
		return Assemble(Source{Name: path, Text: string(data)})
	case strings.HasSuffix(path, ".img"):
		return image.Decode(data)
	}
	return nil, fmt.Errorf("unknown program type %q (want .mc, .s or .img)", path)
}

// AssembleBare assembles sources without the guest runtime (the program
// must provide its own _start).
func AssembleBare(sources ...Source) (*Image, error) {
	return asm.Assemble(sources...)
}

// NewCluster loads an image into a fresh simulated cluster.
func NewCluster(im *Image, cfg Config) (*Cluster, error) {
	return core.NewCluster(im, cfg)
}

// Run loads and executes a guest image to completion on a fresh simulated
// cluster (NewCluster, then Cluster.Run, which hands the cluster's memory to
// the next run in this process).
func Run(im *Image, cfg Config) (*Result, error) {
	return core.Run(im, cfg)
}

// GuestAPI is the mini-C declaration block of every runtime function
// available to guest programs (it is prepended automatically by Compile).
const GuestAPI = grt.Prelude
