// Command perfbench is the DPZ benchmark. It runs one named workload for a
// seed, checks every output against the library reference, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics, as one JSON
// object on the last line of standard output. README.md describes the
// workloads and why each exists.
//
//	go build -o perfbench . && ./perfbench --workload flat-field --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median. The last set-up is the one the run measures.
const setups = 3

// iter is the context of one benchmark iteration.
type iter struct {
	rec    *recorder
	tr     *tracer // nil in untraced iterations
	parent int64   // span of the iteration
}

// op times one call and then checks its output; a failed call or check
// counts as a failed operation. A collection runs first, outside the
// timed window, so the call never pays for a GC cycle that the
// benchmark's own references and earlier calls' garbage would trigger.
func (it *iter) op(kind, name string, run, check func() error) {
	runtime.GC()
	_, end := it.tr.begin(name, it.parent, "")
	t0 := time.Now()
	err := run()
	d := time.Since(t0)
	end()
	if err == nil && check != nil {
		err = check()
	}
	it.rec.add(kind, d, err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "flat-field or serve-mixed")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 30, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced layer replay instead of the end-to-end measurement")
	traceDir := flag.String("trace-dir", "", "directory the traced run writes its spans to")
	flag.Parse()
	var w *spec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload flat-field|serve-mixed --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	printHost("host")
	g := gen{seed: *seed}
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, g, *seconds, *traceDir)
	} else {
		res, err = runPlain(w, g, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printHost("host-end")
	for name, m := range res.Metrics {
		// A metric with no successful sample has no value; the run is then
		// wrong, and 0 keeps the line parseable.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Printf("FAILED %s: no successful sample\n", name)
			res.Metrics[name] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setupTimed sets the workload up `setups` times and keeps the last.
func setupTimed(w *spec, g gen, traced bool) (*bench, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		b, err := w.build(g, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, since(t0))
		if i == setups-1 {
			return b, times, nil
		}
		if err := b.close(); err != nil {
			return nil, nil, err
		}
	}
}

// loopStats is what loop measured besides the per-operation samples.
type loopStats struct {
	requests        int       // served requests in untraced iterations
	burstS          float64   // their bursts' wall time
	readP99         []float64 // p99 read latency of each untraced burst
	plainS, tracedS []float64
}

// loop runs iterations (library slice, then a served burst) until the
// time is up, and at least two. With a tracer, every other iteration is
// traced and records into trec instead of rec, so traced operations never
// feed an end-to-end metric.
func loop(b *bench, g gen, seconds float64, rec, trec *recorder, tr *tracer) loopStats {
	var ls loopStats
	rng := g.rng("requests")
	start := time.Now()
	for n := 0; n < 2 || since(start) < seconds; n++ {
		it := &iter{rec: rec}
		traced := tr != nil && n%2 == 1
		var end func()
		if traced {
			it.rec, it.tr = trec, tr
			it.parent, end = tr.begin("iteration", 0, "")
		}
		t0 := time.Now()
		b.lib(it)
		from := len(it.rec.samples["read"])
		bw := b.srv.burst(it, rng, b.burst)
		if end != nil {
			end()
		}
		if traced {
			ls.tracedS = append(ls.tracedS, since(t0))
		} else {
			ls.plainS = append(ls.plainS, since(t0))
			ls.requests += b.burst
			ls.burstS += bw.Seconds()
			ls.readP99 = append(ls.readP99, quantile(rec.samples["read"][from:], 0.99))
		}
	}
	return ls
}

func runPlain(w *spec, g gen, seconds float64) (*result, error) {
	b, setupS, err := setupTimed(w, g, false)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	ls := loop(b, g, seconds, rec, nil, nil)
	if err := b.close(); err != nil {
		return nil, err
	}
	s := rec.samples
	m := map[string]metric{
		"compress_mbps":   {float64(b.fieldBytes) / 1e6 / median(s["compress"]), "MB/s"},
		"decompress_mbps": {float64(b.fieldBytes) / 1e6 / median(s["decompress"]), "MB/s"},
		"preview_ms":      {1e3 * median(s["preview"]), "ms"},
		"cr":              {b.quality.cr, "ratio"},
		"psnr_db":         {b.quality.psnr, "dB"},
		"max_err_rel":     {b.quality.maxErrRel, "fraction"},
		"req_per_s":       {float64(ls.requests) / ls.burstS, "req/s"},
		"read_p50_ms":     {1e3 * median(s["read"]), "ms"},
		"read_p99_ms":     {1e3 * median(ls.readP99), "ms"},
		"write_p50_ms":    {1e3 * median(s["write"]), "ms"},
		"success_ratio":   {float64(rec.attempted-rec.failed) / float64(rec.attempted), "fraction"},
		"setup_s":         {median(setupS), "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
	fmt.Printf("# samples compress=%d decompress=%d preview=%d read=%d write=%d iterations=%d\n",
		len(s["compress"]), len(s["decompress"]), len(s["preview"]), len(s["read"]), len(s["write"]), len(ls.plainS))
	return &result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m}, nil
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
