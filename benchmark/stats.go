//go:build linux

package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one metric of one run: the reported value, the number of
// readings behind it, and their quartiles. A single reading (N = 1) has
// no spread to give, and -compare does not judge it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// Samples are the timed operations behind a median, in run order.
	Samples []float64 `json:"samples,omitempty"`
}

// one wraps a single reading.
func one(v float64, unit string) sample {
	return sample{Value: v, Unit: unit, N: 1, Q1: v, Q3: v}
}

// repeated wraps a value that n operations reproduced bit for bit: it has
// no spread, and unlike a single reading it is known to have none.
func repeated(v float64, unit string, n int) sample {
	return sample{Value: v, Unit: unit, N: n, Q1: v, Q3: v}
}

// medianOf reports the median of xs with its quartiles and count.
func medianOf(xs []float64, unit string) sample {
	if len(xs) == 0 {
		return sample{Unit: unit}
	}
	q1, q2, q3 := quartiles(xs)
	return sample{Value: q2, Unit: unit, N: len(xs), Q1: q1, Q3: q3, Samples: xs}
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the exclusive method), so the spreads printed here are the spreads the
// acceptance check computes. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// environment is the machine record carried by every result file.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GitSHA:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout that is not a git repository keeps "unknown".
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	return env
}

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibrate times a fixed single-thread chain of dependent multiply-adds
// (about 200 ms on the 2.1 GHz reference box). The work never changes, so
// a reading far from its neighbours in a result file means the CPU, not
// the program, was slow at that moment. (It does not see a slow memory
// system; see the README's "Steadiness".)
func calibrate() float64 {
	t := time.Now()
	x := 1.0
	for i := 0; i < 80_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	calibSink = x
	return float64(time.Since(t).Nanoseconds())
}

// selfCPU is the user+system CPU time this process has consumed.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procCPU reads user+system CPU seconds of a process from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unparsable CPU times", pid)
	}
	const clockTicks = 100 // USER_HZ on every Linux this runs on
	return (ut + st) / clockTicks, nil
}

// peakRSSMB reads VmHWM of a process (pid 0 = this one) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
