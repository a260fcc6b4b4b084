// Command dqemu-cc compiles mini-C guest programs.
//
//	dqemu-cc prog.mc              # write prog.img (linked with the runtime)
//	dqemu-cc -S prog.mc           # print GA64 assembly instead
//	dqemu-cc -o out.img prog.mc
//
// The image is built with no assembly text in between: the compiler hands
// its instructions to the assembler. -S prints that same stream, so
// dqemu-asm of the printed text writes the same image byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dqemu"
)

func main() {
	emitAsm := flag.Bool("S", false, "emit GA64 assembly instead of an image")
	out := flag.String("o", "", "output path (default: input with .img suffix)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dqemu-cc [-S] [-o out] prog.mc")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if *emitAsm {
		text, err := dqemu.CompileToAsm(path, string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		return
	}
	im, err := dqemu.Compile(path, string(src))
	if err != nil {
		fatal(err)
	}
	target := *out
	if target == "" {
		target = strings.TrimSuffix(path, ".mc") + ".img"
	}
	if err := os.WriteFile(target, im.Encode(), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dqemu-cc: wrote %s (entry %#x, %d segments)\n", target, im.Entry, len(im.Segments))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dqemu-cc:", err)
	os.Exit(1)
}
