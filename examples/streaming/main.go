// Streaming: reproduce Figure 5 end-to-end. Shows the generated
// double-buffered source for a blackscholes-style loop, sweeps the block
// count N like §III-B, and compares against the analytic model.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"

	"comp"
	"comp/internal/sim/machine"
	"comp/internal/transform"
	"comp/internal/tune"
)

const src = `
float sptprice[131072];
float prices[131072];
int numOptions;

int main(void) {
    int i;
    numOptions = 131072;
    for (i = 0; i < numOptions; i++) {
        sptprice[i] = 10.0 + i % 97;
    }
    #pragma offload target(mic:0) in(sptprice : length(numOptions)) out(prices : length(numOptions))
    #pragma omp parallel for
    for (i = 0; i < numOptions; i++) {
        prices[i] = sqrt(sptprice[i]) * exp(sptprice[i] * 0.001) + log(sptprice[i] + 1.0);
    }
    return 0;
}
`

func main() {
	// Show the Figure 5(c)-style transformed source once.
	res, err := comp.Optimize(src, comp.Options{Streaming: true, ReduceMemory: true, Blocks: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== transformed source (N=4, double-buffered) ===")
	fmt.Println(res.Source())

	// Profile the unoptimized run for the SIII-B model inputs.
	naive, err := comp.RunSource(src)
	if err != nil {
		log.Fatal(err)
	}
	k := machine.XeonPhi().LaunchOverhead
	prof := tune.BaselineFromStats(naive.Stats, k)
	fmt.Printf("=== block-count sweep (D=%v C=%v K=%v, model N*=%d) ===\n",
		prof.Transfer, prof.Compute, k, prof.Blocks())
	fmt.Printf("%6s %12s %12s\n", "N", "measured", "model")
	fmt.Printf("%6d %12v %12s   (unoptimized)\n", 1, naive.Stats.Time, transform.ModelTime(prof.Transfer, prof.Compute, k, 1))

	for _, n := range []int{2, 5, 10, 20, 40, 50} {
		r, err := comp.Optimize(src, comp.Options{Streaming: true, ReduceMemory: true, Persistent: true, Blocks: n})
		if err != nil {
			log.Fatal(err)
		}
		run, err := comp.RunSource(r.Source())
		if err != nil {
			log.Fatal(err)
		}
		model := transform.ModelTime(prof.Transfer, prof.Compute, k, n)
		fmt.Printf("%6d %12v %12v\n", n, run.Stats.Time, model)
	}
}
