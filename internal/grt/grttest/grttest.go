// Package grttest holds what tests of the guest toolchain share: building
// one mini-C source by both of grt's routes and comparing the images.
package grttest

import (
	"bytes"
	"fmt"
	"regexp"

	"dqemu/internal/asm"
	"dqemu/internal/grt"
	"dqemu/internal/image"
)

// DiffRoutes builds a mini-C workload both ways — grt.BuildProgram, and the
// text grt.CompileProgram prints assembled by grt.BuildAsmProgram — and
// says how the two differ: "" when the images are byte-identical or both
// builds fail with one message. The tests and FuzzCompile hold the routes
// to it.
func DiffRoutes(name, src string) string {
	im, err := grt.BuildProgram(name, src)
	text, terr := grt.CompileProgram(name, src)
	var tim *image.Image
	if terr == nil {
		tim, terr = grt.BuildAsmProgram(asm.Source{Name: name + ".s", Text: text})
	}
	switch {
	case err != nil || terr != nil:
		if err == nil || terr == nil || position.ReplaceAllString(err.Error(), "") != position.ReplaceAllString(terr.Error(), "") {
			return fmt.Sprintf("built: %v; from text: %v", err, terr)
		}
	case !bytes.Equal(im.Encode(), tim.Encode()):
		return "the images differ"
	}
	return ""
}

// position is what says where a build failed — "grt: assembling …: " and a
// file:line — which differs between the routes: the mini-C line, or the
// line of the text.
var position = regexp.MustCompile(`^(grt: assembling[^:]*: )?[^:]*:-?\d+: `)
