package workloads

import (
	"testing"

	"dqemu/internal/grt/grttest"
	"dqemu/internal/image"
)

// TestStockSourcesBothRoutes: the source of every stock guest makes the
// same image from the text -S prints as straight from the compiler.
func TestStockSourcesBothRoutes(t *testing.T) {
	defer func(orig func(string, string) (*image.Image, error)) { build = orig }(build)
	built := 0
	build = func(name, src string) (*image.Image, error) {
		built++
		if d := grttest.DiffRoutes(name, src); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		return nil, nil
	}
	for _, mk := range []func() (*image.Image, error){
		func() (*image.Image, error) { return Pi(4, 50, 50) },
		func() (*image.Image, error) { return Blackscholes(4, 64, 2, 1) },
		func() (*image.Image, error) { return Swaptions(4, 4, 20, 1) },
		func() (*image.Image, error) { return X264(4, 2, 3) },
		func() (*image.Image, error) { return Fluidanimate(4, 16, 2, 2) },
		func() (*image.Image, error) { return Canneal(4, 256, 40, 1) },
		func() (*image.Image, error) { return Dedup(1, 2, 1, 12, 8, 4) },
		func() (*image.Image, error) { return Streamcluster(3, 96, 4, 2) },
		func() (*image.Image, error) { return Phases(8, 8) },
		func() (*image.Image, error) { return Racy(6, 40, 1234) },
		func() (*image.Image, error) { return Torture(4, 50) },
		func() (*image.Image, error) { return LockBench(16, 500, false) },
		func() (*image.Image, error) { return MemWalk(524288) },
		func() (*image.Image, error) { return LocalWalk(2097152) },
		func() (*image.Image, error) { return FalseShare(16, 4, 128, 60) },
	} {
		if _, err := mk(); err != nil {
			t.Error(err)
		}
	}
	if built != 15 {
		t.Errorf("%d of 15 stock sources built", built)
	}
}
