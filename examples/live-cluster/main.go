// live-cluster runs a guest program on a real TCP cluster inside one
// process: the master and two slaves are goroutines connected over loopback
// sockets, running the same protocol engine as the simulator and exchanging
// the frames separate machines would (dqemu -listen/-connect is the
// multi-process form).
package main

import (
	"fmt"
	"log"
	"time"

	"dqemu"
	"dqemu/internal/core"
	"dqemu/internal/live"
)

const guestSrc = `
long results[8];
long worker(long idx) {
	double acc = 0.0;
	for (long i = 1; i <= 50000; i++) acc += 1.0 / (double)i;
	results[idx] = (long)(acc * 1000.0);
	return 0;
}
long main() {
	print_str("harmonic sums on ");
	print_long(num_nodes());
	print_str(" nodes\n");
	long tids[8];
	for (long i = 0; i < 8; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 8; i++) thread_join(tids[i]);
	print_str("H(50000)*1000 = ");
	print_long(results[0]);
	print_char('\n');
	return 0;
}`

func main() {
	im, err := dqemu.Compile("live.mc", guestSrc)
	if err != nil {
		log.Fatal(err)
	}

	res, err := live.Run(im, live.Config{Core: core.Config{Shape: core.Shape{Slaves: 2}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Console)
	fmt.Printf("\nwall time: %v (true concurrency over TCP)\n", time.Duration(res.TimeNs))
}
