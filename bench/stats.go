package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the spreads this program reports match the ones an outside script gets.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measure runs the timed window of a pass — ops executes the ops and returns
// their latencies in ms — and derives the end-to-end metrics from it and the
// pass's set-up times (s).
func measure(setups []float64, ops func() []float64) (map[string]float64, error) {
	var m0, m1 runtime.MemStats
	rss := startRSSSampler()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	lat := ops()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	rssMB, err := rss.finish()
	if err != nil {
		return nil, err
	}
	n := float64(len(lat))
	return map[string]float64{
		"setup_s":            median(setups),
		"op_ms_p50":          percentile(lat, 50),
		"op_ms_p90":          percentile(lat, 90),
		"ops_per_s":          n / elapsed.Seconds(),
		"allocs_per_op":      float64(m1.Mallocs-m0.Mallocs) / n,
		"alloc_bytes_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		"peak_rss_mb":        rssMB,
	}, nil
}

// env is the machine identity a results file is only comparable under.
type env struct {
	GoVersion  string `json:"go_version"`
	Gomaxprocs int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnv() env {
	return env{
		GoVersion:  runtime.Version(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Nproc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS counter, so a workload's memory is not an earlier workload's in
// the same process.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	clearPeakRSS()
}

var clearRefsWarning sync.Once

func clearPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		clearRefsWarning.Do(func() {
			fmt.Fprintf(os.Stderr, "bench: cannot reset the peak-RSS counter (%v); peak_rss_mb covers the whole process\n", err)
		})
	}
}

// rssSampler splits a timed pass into windows and records each window's peak
// resident set, restarting the kernel's counter at every window. The median
// window peak is the reported peak_rss_mb: steadier than the pass's single
// maximum, which one late garbage collection can set.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

const rssWindow = 100 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	clearPeakRSS()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	mb, err := peakRSSMB()
	if err != nil {
		s.err = err
		return
	}
	s.peaks = append(s.peaks, mb)
	clearPeakRSS()
}

// finish stops the sampler and returns the median window peak in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.peaks), s.err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
