package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/runtime"
)

// compileGenerated is how many seeded programs the compile workload adds
// to the registry's ten. Their region counts step evenly from 1 to 16, so
// program size, and which passes fire, vary the same way at every seed.
const compileGenerated = 22

// compileGenN is the generated programs' array length; it sets how long
// their simulated runs take, not how long they take to compile.
const compileGenN = 256

// compileBench is the compile workload: a closed loop on one goroutine,
// each op optimizing one program under the default spec and compiling the
// result for the VM. Programs are drawn in shuffled rounds, each program
// once per round.
type compileBench struct {
	progs    []*program // the registry's, then the generated ones
	registry int
	rng      *rand.Rand
	deck     []int
	// canon is each program's optimized source from its first op; every
	// later op must reproduce it, and the oracle runs it once.
	canon []string
	ops   []int // ops per program
	// diverged counts ops whose optimized source differed from canon.
	diverged int
	log      io.Writer
}

func setupCompile(seed int64, log io.Writer) (instance, error) {
	progs, err := registryPrograms()
	if err != nil {
		return nil, err
	}
	registry := len(progs)
	r := rand.New(rand.NewSource(seed))
	for j := 0; j < compileGenerated; j++ {
		regions := 1 + j*15/(compileGenerated-1)
		p, err := generatedProgram(fmt.Sprintf("gen%02d", j), generate(r.Int63(), regions, compileGenN))
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	b := &compileBench{progs: progs, registry: registry, rng: r, canon: make([]string, len(progs)), ops: make([]int, len(progs)), log: log}
	// Warm up: one op per program fills canon and every lazy cache.
	for i, p := range progs {
		out, err := compileOp(p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		b.canon[i] = out
	}
	return b, nil
}

// next returns the next program index, dealing a fresh shuffled round
// when the current one is used up.
func (b *compileBench) next() int {
	if len(b.deck) == 0 {
		b.deck = b.rng.Perm(len(b.progs))
	}
	i := b.deck[0]
	b.deck = b.deck[1:]
	return i
}

// compileOp is the untraced op: core.Optimize, then interp.Compile, which
// builds the VM module under the process default engine.
func compileOp(src string) (string, error) {
	res, err := core.Optimize(src, core.DefaultOptions())
	if err != nil {
		return "", err
	}
	out := res.Source()
	p, err := interp.Compile(out)
	if err != nil {
		return "", err
	}
	if p.Engine() == nil {
		return "", fmt.Errorf("vm declined the program: %v", p.EngineErr())
	}
	return out, nil
}

// tracedCompileOp is the same work split into its layer calls.
func tracedCompileOp(sc scope, src string) (string, error) {
	opt := core.DefaultOptions()
	s := sc.begin("core.Optimize")
	out, err := tracedOptimize(s, src, opt.Spec(), opt.PassConfig())
	s.end()
	if err != nil {
		return "", err
	}
	s = sc.begin("interp.Compile")
	_, err = tracedCompile(s, out)
	s.end()
	return out, err
}

func (b *compileBench) timed(d time.Duration, tr *tracer, ph *phase) error {
	b.deck = nil // rounds start with the phase
	loop := func() error {
		start := time.Now()
		for op := 0; ph.running(start, d); op++ {
			i := b.next()
			t0 := ph.begin()
			var out string
			var err error
			if tr == nil {
				out, err = compileOp(b.progs[i].src)
			} else {
				out, err = tracedCompileOp(tr.root(op, 0), b.progs[i].src)
			}
			lat := time.Since(t0)
			if err != nil {
				ph.fail()
				fmt.Fprintf(b.log, "compile %s: %v\n", b.progs[i].name, err)
			} else {
				ph.done(lat)
				b.ops[i]++
				if out != b.canon[i] {
					b.diverged++
				}
			}
			if len(b.deck) == 0 {
				ph.endRound()
			}
		}
		return nil
	}
	if tr == nil {
		return loop()
	}
	return withoutDefaultEngine(loop)
}

// decompose runs each program's optimized module once on the VM alone and
// once on the simulated platform: the generated code's run time.
func (b *compileBench) decompose(tr *tracer) error {
	return withoutDefaultEngine(func() error {
		for i, p := range b.progs {
			sc := tr.root(i, 0)
			prog, err := tracedCompile(sc, b.canon[i])
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			if _, err := tracedExec(sc, prog, p.setup, p.outputs); err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			s := sc.begin("runtime.run")
			_, err = runtime.RunWithSetup(prog, p.platform(runtime.DefaultConfig()), p.setup)
			s.end()
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
		return nil
	})
}

// check runs each program as written and as optimized on the simulated
// platform and holds the optimized run's outputs to the tree-walker on the
// pragma-stripped source. The speedup is the paper's: over the registry
// programs, so it does not move with the seed.
func (b *compileBench) check() (float64, int, error) {
	wrong := b.diverged
	var speedups []float64
	for i, p := range b.progs {
		want, err := p.want()
		if err != nil {
			return 0, 0, err
		}
		naive, _, err := p.simulate(p.src, runtime.DefaultConfig())
		if err != nil {
			return 0, 0, err
		}
		opt, got, err := p.simulate(b.canon[i], runtime.DefaultConfig())
		if err != nil {
			return 0, 0, err
		}
		if err := want.diff(got); err != nil {
			fmt.Fprintf(b.log, "compile %s: wrong outputs: %v\n", p.name, err)
			wrong += b.ops[i]
		}
		if i < b.registry {
			speedups = append(speedups, float64(naive)/float64(opt))
		}
	}
	if b.diverged > 0 {
		fmt.Fprintf(b.log, "compile: %d ops produced a different optimized source than their program's first\n", b.diverged)
	}
	return geomean(speedups), wrong, nil
}

// layers is empty: the compile workload crosses no serve, tune or fleet
// layer.
func (b *compileBench) layers(*tracer, *phase) map[string]float64 { return nil }

func (b *compileBench) close() {}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
