package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// calibN is the order of the calibration GEMM.
const calibN = 192

// calibGFLOPS times a frozen, plain triple-loop GEMM that belongs to the
// benchmark, not to the program: its code never changes, so a change in
// its rate between two runs is the host's drift, not a regression. The
// rate is the median of several repetitions. It is a diagnostic printed in
// the header, never a metric.
func calibGFLOPS() float64 {
	n := calibN
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	var rates []float64
	for r := 0; r < 9; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ci := c[i*n : i*n+n]
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				bk := b[k*n : k*n+n]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
		rates = append(rates, 2*float64(n*n*n)/since(t0)/1e9)
	}
	return median(rates)
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// machine's vCPUs since boot (the steal column of /proc/stat, in 1/100 s
// ticks), or -1 when it is not available.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100
}

// printHost prints a header line describing the host, with the
// calibration rate measured now and the steal time so far: the host-end
// line's steal minus the host line's is what the hypervisor took from
// the vCPUs during the run.
func printHost(label string) {
	h := struct {
		NumCPU      int     `json:"nproc"`
		GOMAXPROCS  int     `json:"gomaxprocs"`
		Go          string  `json:"go"`
		CPU         string  `json:"cpu"`
		CalibGFLOPS float64 `json:"host.calib_gflops"`
		StealS      float64 `json:"host.steal_s"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), calibGFLOPS(), stealSeconds()}
	js, _ := json.Marshal(h) // a struct of plain fields always marshals
	fmt.Printf("# %s %s\n", label, js)
}
