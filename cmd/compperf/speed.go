package main

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/printer"
	"go/token"
	"math"
	"strings"
	"time"
)

// The host's own speed moves under every timing metric: on a shared
// virtual machine a fixed loop runs up to twice as slow for minutes at a
// time, while other tenants load the machine. A run therefore samples a
// fixed reference kernel through its timed phase and reports its times
// scaled to a host on which the kernel takes refNominalUs: a code change
// moves the workload but not the kernel, a slow host moves both.
//
// The kernel is standard-library code only, so no change to this
// repository moves it. Its four parts load the host the way the workloads
// do, and each tracks the workloads' slowdowns differently; their
// geometric mean tracked all four workloads best.

// refNominalUs is the reference host's kernel time: the geometric mean,
// in µs, of the four parts' durations. It is a fixed round number a little
// under the fastest the kernel ran on the 2-vCPU machine the baseline was
// measured on, so scaled times read close to that machine at its fastest.
const refNominalUs = 400

// refEvery is how often a timed phase samples the reference kernel; each
// sample takes about 3 ms, about 1.2% of the phase.
const refEvery = 250 * time.Millisecond

// refSetupSamples is how many times a process samples the kernel right
// after its set-up, to scale its set-up time.
const refSetupSamples = 5

var refKernels = []func() uint64{refLoop, refTree, refParse, refInterp}

// refLoop is integer arithmetic alone.
func refLoop() uint64 {
	s := uint64(0)
	for i := uint64(0); i < 400000; i++ {
		s += i * i >> 3
	}
	return s
}

type refNode struct {
	l, r *refNode
	k    uint64
}

// refTree allocates an unbalanced search tree of pseudo-random keys and
// walks it: allocation and pointer chasing.
func refTree() uint64 {
	var root *refNode
	x := uint64(88172645463325252)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p := &root
		for *p != nil {
			if x < (*p).k {
				p = &(*p).l
			} else {
				p = &(*p).r
			}
		}
		*p = &refNode{k: x}
	}
	var sum func(n *refNode) uint64
	sum = func(n *refNode) uint64 {
		if n == nil {
			return 0
		}
		return n.k ^ sum(n.l) + sum(n.r)
	}
	return sum(root)
}

// refSource is a Go file of forty small loop functions for refParse.
var refSource = func() []byte {
	var b strings.Builder
	b.WriteString("package p\n\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "func f%d(a []float64, n int) float64 {\n\ts := 0.0\n\tfor i := 0; i < n; i++ {\n"+
			"\t\tif a[i] > %d.5 {\n\t\t\ts += a[i] * %d\n\t\t} else {\n\t\t\ts -= a[(i*%d)%%n]\n\t\t}\n\t}\n\treturn s\n}\n\n",
			i, i, i+1, 2*i+1)
	}
	return []byte(b.String())
}()

// refParse parses and prints a Go source file: a compiler front end.
func refParse() uint64 {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", refSource, 0)
	if err != nil {
		panic(fmt.Sprintf("reference source: %v", err))
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, f); err != nil {
		panic(fmt.Sprintf("reference source: %v", err))
	}
	return uint64(buf.Len())
}

// refInterp dispatches a short op sequence over an array of floats: an
// interpreter's inner loop.
func refInterp() uint64 {
	code := []byte{0, 1, 2, 3, 1, 4, 2, 5}
	a := make([]float64, 2048)
	for i := range a {
		a[i] = float64(i%17) * 0.25
	}
	acc := 0.0
	for rep := 0; rep < 6; rep++ {
		for i := range a {
			x := a[i]
			for _, op := range code {
				switch op {
				case 0:
					x = x*1.0001 + 0.5
				case 1:
					x -= 0.25
				case 2:
					if x > 3 {
						x *= 0.5
					}
				case 3:
					x += a[(i*7)%len(a)]
				case 4:
					x = x * x * 0.001
				case 5:
					acc += x
				}
			}
		}
	}
	return uint64(acc)
}

// refSink keeps the kernels' results alive.
var refSink uint64

// speedProbe samples the reference kernel. It is not safe for concurrent
// use; a goroutine that probes keeps its own and merges it afterwards.
type speedProbe struct {
	next  time.Time
	us    [4][]float64 // each part's durations
	spent time.Duration
	last  time.Duration // the latest sample's duration
}

// sample runs every part of the kernel once and returns the time taken.
func (p *speedProbe) sample() time.Duration {
	t0 := time.Now()
	for i, k := range refKernels {
		s := time.Now()
		refSink += k()
		p.us[i] = append(p.us[i], float64(time.Since(s))/float64(time.Microsecond))
	}
	d := time.Since(t0)
	p.spent += d
	p.last = d
	p.next = time.Now().Add(refEvery)
	return d
}

// maybe samples the kernel when a sample is due and returns the time it
// took, 0 when none was due.
func (p *speedProbe) maybe() time.Duration {
	if time.Now().Before(p.next) {
		return 0
	}
	return p.sample()
}

func (p *speedProbe) merge(o *speedProbe) {
	for i := range p.us {
		p.us[i] = append(p.us[i], o.us[i]...)
	}
	p.spent += o.spent
}

// kernelUs is the geometric mean of the parts' median durations, in µs.
func (p *speedProbe) kernelUs() float64 {
	logs := 0.0
	for _, xs := range p.us {
		logs += math.Log(median(xs))
	}
	return math.Exp(logs / float64(len(p.us)))
}

// factor scales a time measured on this host to the reference host.
func (p *speedProbe) factor() float64 { return refNominalUs / p.kernelUs() }
